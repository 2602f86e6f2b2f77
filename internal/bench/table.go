package bench

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is one result of an experiment: every experiment measures its
// cells through Time and returns tables, which Text prints and CSV
// writes. Name tells the tables of one experiment apart: "" is the
// main table (<experiment>.csv), any other name adds a suffix
// (<experiment>_<name>.csv).
type Table struct {
	Name    string
	Title   string
	Columns []Column
	Rows    [][]Cell
	Footer  string
}

// Column heads one table column. In says which rendering carries it:
// raw counters may be CSV-only, views derived from them (hit rates,
// reductions) text-only. A table without CSV columns writes no CSV; one
// without text columns prints nothing.
type Column struct {
	Name string
	In   Place
}

// Place selects the renderings a column appears in.
type Place uint8

const (
	Both Place = iota
	TextOnly
	CSVOnly
)

// cols returns one column per name, all in the same place.
func cols(in Place, names ...string) []Column {
	out := make([]Column, len(names))
	for i, n := range names {
		out[i] = Column{Name: n, In: in}
	}
	return out
}

// Cell is one table entry: a value printed in its unit, or a mark
// printed verbatim in its place — the mark Time gave a failed
// measurement ("timeout", "oom", …), or for Label cells the text itself.
type Cell struct {
	Mark string
	V    float64
	Unit Unit
}

// Unit says how a cell's value prints. NaN and infinite values have no
// rendering: "-" in text, an empty CSV field.
type Unit uint8

const (
	Label    Unit = iota // no value: the Mark is the cell
	Count                // integer count
	Seconds              // wall time
	AtLeast              // run stopped at the budget: ">budget", the paper's ">7200.00"
	Ratio                // speed-up or work ratio
	Percent              // fraction (hit rate); text shows a percentage
	Fidelity             // fidelity bound
)

func label(s string) Cell { return Cell{Mark: s} }

func count[T int | uint64](n T) Cell { return Cell{V: float64(n), Unit: Count} }

// measured is value v of m in unit u, or m's mark when m failed.
func measured(m Measurement, v float64, u Unit) Cell {
	return Cell{Mark: m.Mark(), V: v, Unit: u}
}

// counted is a counter v of m's run in unit u, or m's mark when the run
// did not finish. A degraded run finished, so its counters stand.
func counted(m Measurement, v float64, u Unit) Cell {
	c := measured(m, v, u)
	if m.Degraded {
		c.Mark = ""
	}
	return c
}

// secs is m's wall time, or its mark.
func secs(m Measurement) Cell { return measured(m, m.Seconds, Seconds) }

func (c Cell) text() string {
	if c.Mark != "" || c.Unit == Label {
		return c.Mark
	}
	v := c.V
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "-"
	}
	switch c.Unit {
	case Count:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case Seconds:
		return fmtSec(v)
	case AtLeast:
		return ">" + fmtSec(v)
	case Ratio:
		return fmt.Sprintf("%.2fx", v)
	case Percent:
		return fmt.Sprintf("%.1f%%", 100*v)
	}
	return fmt.Sprintf("%.6g", v)
}

func (c Cell) csv() string {
	if c.Mark != "" || c.Unit == Label {
		return csvEscape(c.Mark)
	}
	v := c.V
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return ""
	}
	switch c.Unit {
	case Count:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case AtLeast:
		return fmt.Sprintf(">%g", v)
	case Percent:
		return fmt.Sprintf("%.4f", v)
	case Fidelity:
		return fmt.Sprintf("%.6g", v)
	}
	return fmt.Sprintf("%g", v)
}

// shown returns the indexes of the columns not confined to skip's
// rendering.
func (t *Table) shown(skip Place) []int {
	var idx []int
	for i, c := range t.Columns {
		if c.In != skip {
			idx = append(idx, i)
		}
	}
	return idx
}

// Text renders the table in fixed-width columns under its title, with
// the footer below. Columns holding only labels are left-aligned,
// columns of values right-aligned.
func (t *Table) Text() string {
	idx := t.shown(CSVOnly)
	if len(idx) == 0 {
		return ""
	}
	lines := make([][]string, 1, 1+len(t.Rows))
	left := make([]bool, len(idx))
	for j, ci := range idx {
		lines[0] = append(lines[0], t.Columns[ci].Name)
		left[j] = true
	}
	for _, r := range t.Rows {
		line := make([]string, len(idx))
		for j, ci := range idx {
			line[j] = r[ci].text()
			if r[ci].Unit != Label {
				left[j] = false
			}
		}
		lines = append(lines, line)
	}
	width := make([]int, len(idx))
	for _, l := range lines {
		for j, s := range l {
			width[j] = max(width[j], utf8.RuneCountInString(s))
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n\n")
	}
	for _, l := range lines {
		var lb strings.Builder
		for j, s := range l {
			pad := strings.Repeat(" ", width[j]-utf8.RuneCountInString(s))
			if j > 0 {
				lb.WriteString("  ")
			}
			if left[j] {
				lb.WriteString(s + pad)
			} else {
				lb.WriteString(pad + s)
			}
		}
		sb.WriteString(strings.TrimRight(lb.String(), " ") + "\n")
	}
	if t.Footer != "" {
		sb.WriteString("\n" + t.Footer)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values under a header line
// of column names — the raw data behind the text, ready for plotting.
func (t *Table) CSV() string {
	idx := t.shown(TextOnly)
	if len(idx) == 0 {
		return ""
	}
	var sb strings.Builder
	for j, ci := range idx {
		if j > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(csvEscape(t.Columns[ci].Name))
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		for j, ci := range idx {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(r[ci].csv())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func fmtSec(s float64) string {
	switch {
	case s < 0.01:
		return fmt.Sprintf("%.4f", s)
	case s < 1:
		return fmt.Sprintf("%.3f", s)
	default:
		return fmt.Sprintf("%.2f", s)
	}
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
