package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Col is one Table column. Width is a printf-style field width: a
// positive width right-aligns cells (%8s), a negative one left-aligns
// them (%-8s), and cells wider than the field overflow it.
type Col struct {
	Head  string
	Width int
}

// Table is a titled grid of already-formatted cells. Text renders it
// fixed-width (one space between columns) for the terminal; WriteCSV
// renders the same rows as CSV with the heads as the header record.
type Table struct {
	Title string
	Cols  []Col
	Rows  [][]string
}

// csvTable starts an untitled table whose columns are named by a CSV
// header line, for the studies' summary artifacts.
func csvTable(header string) *Table {
	t := &Table{}
	for _, h := range strings.Split(header, ",") {
		t.Cols = append(t.Cols, Col{Head: h})
	}
	return t
}

// Row appends one row; it must have one cell per column.
func (t *Table) Row(cells ...string) {
	if len(cells) != len(t.Cols) {
		panic(fmt.Sprintf("experiments: table %q row has %d cells for %d columns", t.Title, len(cells), len(t.Cols)))
	}
	t.Rows = append(t.Rows, cells)
}

// Text renders the table fixed-width: the title line, a header line
// when any column has a head, then one line per row. Trailing blanks
// are trimmed, so an empty last cell leaves no padding behind.
func (t *Table) Text() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	line := func(cells []string) {
		var l strings.Builder
		for i, c := range t.Cols {
			if i > 0 {
				l.WriteByte(' ')
			}
			fmt.Fprintf(&l, "%*s", c.Width, cells[i])
		}
		b.WriteString(strings.TrimRight(l.String(), " ") + "\n")
	}
	if heads := t.heads(); strings.Join(heads, "") != "" {
		line(heads)
	}
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// WriteCSV renders the heads and rows as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.heads()); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}

// heads returns the column heads in order.
func (t *Table) heads() []string {
	heads := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		heads[i] = c.Head
	}
	return heads
}

// num formats v with prec decimals: the cell form of %.<prec>f.
func num(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }
