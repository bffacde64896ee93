package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"
	"unicode/utf8"
)

// Table is one experiment's output: a titled grid.
type Table struct {
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case time.Duration:
			row[i] = formatDuration(v)
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render returns the aligned textual table.
func (t *Table) Render() string {
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	}
	tw := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', 0)
	sep := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		sep[i] = strings.Repeat("-", utf8.RuneCountInString(c))
	}
	for _, row := range append([][]string{t.Columns, sep}, t.Rows...) {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	if t.Note != "" {
		fmt.Fprintf(&sb, "note: %s\n", t.Note)
	}
	return sb.String()
}

// formatDuration renders a duration with 3 significant digits and a
// human-appropriate unit.
func formatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// formatBytes renders a byte count with binary units.
func formatBytes(n int64) string {
	switch {
	case n < 1<<10:
		return fmt.Sprintf("%dB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	case n < 1<<30:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	}
}

// ratio renders a/b with a sensible fallback for zero denominators.
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", float64(a)/float64(b))
}
