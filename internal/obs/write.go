package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"text/tabwriter"
)

// formatBound renders a histogram bucket upper bound compactly
// ("1e-06", "0.25", "1024").
func formatBound(b float64) string {
	if b == math.Trunc(b) && math.Abs(b) < 1e15 {
		return strconv.FormatInt(int64(b), 10)
	}
	return strconv.FormatFloat(b, 'g', 6, 64)
}

// Snapshot returns the expvar-style state of every metric, keyed by
// name — the object served at /metrics. The map is safe to marshal
// from any goroutine; values are point-in-time reads.
func (r *Registry) Snapshot() map[string]any {
	metrics := map[string]any{}
	r.each(func(m Metric) { metrics[m.Name()] = m.snapshot() })
	return map[string]any{
		"registry":       r.name,
		"enabled":        r.Enabled(),
		"uptime_seconds": r.Uptime().Seconds(),
		"metrics":        metrics,
	}
}

// WriteJSON writes the indented JSON snapshot. encoding/json sorts
// map keys, so the output is stable for a fixed metric state.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// familyText is a Family's text readout.
type familyText interface {
	textLine() (typ, value, detail string)
}

// WriteText writes an aligned human-readable summary: one line per
// metric, with per-second rates for counters (uptime as denominator)
// and count/mean/p50/p99 for histograms. This is the -v readout of
// cmd/darkside and cmd/asrdecode.
func (r *Registry) WriteText(w io.Writer) error {
	up := r.Uptime().Seconds()
	fmt.Fprintf(w, "== observability: registry %q, uptime %.1fs ==\n", r.name, up)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\ttype\tvalue\tunit\tdetail\n")
	r.each(func(m Metric) {
		switch v := m.(type) {
		case *Counter:
			rate := ""
			if up > 0 {
				rate = fmt.Sprintf("%.2f/s", float64(v.Value())/up)
			}
			fmt.Fprintf(tw, "%s\tcounter\t%d\t%s\t%s\n", v.Name(), v.Value(), v.Unit(), rate)
		case *Gauge:
			fmt.Fprintf(tw, "%s\tgauge\t%g\t%s\t\n", v.Name(), v.Value(), v.Unit())
		case *Histogram:
			fmt.Fprintf(tw, "%s\thistogram\tn=%d\t%s\tmean=%.4g p50<=%.4g p99<=%.4g\n",
				v.Name(), v.Count(), v.Unit(), v.Mean(), v.Quantile(0.5), v.Quantile(0.99))
		case familyText:
			typ, value, detail := v.textLine()
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", m.Name(), typ, value, m.Unit(), detail)
		default:
			fmt.Fprintf(tw, "%s\t?\t\t%s\t\n", m.Name(), m.Unit())
		}
	})
	return tw.Flush()
}
