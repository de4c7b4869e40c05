package bench

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"text/tabwriter"
	"unicode/utf8"
)

// Table is what a driver returns for one printed table: a title, the name
// of its label column, its columns, and one row per line.
type Table struct {
	Title string
	Label string
	Cols  []Col
	Rows  []Row
}

// Col is a column header and the number of decimals its cells print with.
type Col struct {
	Name string
	Prec int
}

// Row is one line of a table: a label and one cell per column.
type Row struct {
	Label string
	Cells []float64
}

// nan marks a cell a row has no value for.
var nan = math.NaN()

// cols returns one column per name, all printed with prec decimals.
func cols(prec int, names ...string) []Col {
	out := make([]Col, len(names))
	for i, n := range names {
		out[i] = Col{n, prec}
	}
	return out
}

// Print writes each table as its title, a header line and its rows: the
// label column's name and labels left-aligned, cells right-aligned, a NaN cell as "-", and a nonzero cell
// its column's decimals would round to zero with two significant digits
// instead (0.00004 in a 4-decimal column prints 0.000040). It is the only place
// the package formats output: ewhbench and the root benchmarks print
// through it. A title line holds no tab, so it ends the previous table's
// columns.
func Print(w io.Writer, tables []Table) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	for _, t := range tables {
		width := utf8.RuneCountInString(t.Label)
		for _, r := range t.Rows {
			width = max(width, utf8.RuneCountInString(r.Label))
		}
		fmt.Fprintf(tw, "%s\n%-*s\t", t.Title, width, t.Label)
		for _, c := range t.Cols {
			fmt.Fprintf(tw, "%s\t", c.Name)
		}
		for _, r := range t.Rows {
			fmt.Fprintf(tw, "\n%-*s\t", width, r.Label)
			for i, v := range r.Cells {
				fmt.Fprintf(tw, "%s\t", formatCell(v, t.Cols[i].Prec))
			}
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// formatCell prints v with prec decimals, or with enough for two significant
// digits when those would print a nonzero v as zero.
func formatCell(v float64, prec int) string {
	if math.IsNaN(v) {
		return "-"
	}
	cell := fmt.Sprintf("%.*f", prec, v)
	if zero, _ := strconv.ParseFloat(cell, 64); v != 0 && zero == 0 {
		cell = fmt.Sprintf("%.*f", 1-int(math.Floor(math.Log10(math.Abs(v)))), v)
	}
	return cell
}
