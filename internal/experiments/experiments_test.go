package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/asr"
	"repro/internal/dnn"
	"repro/internal/qkern"
	"repro/internal/quant"
	"repro/internal/speech"
)

func tinySys(t *testing.T) *asr.System {
	t.Helper()
	sys, err := SystemFor(asr.ScaleTiny())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSystemForCaches(t *testing.T) {
	a := tinySys(t)
	b := tinySys(t)
	if a != b {
		t.Fatalf("SystemFor should cache per scale")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n1"},
	}
	out := tab.String()
	if !strings.Contains(out, "== x: demo ==") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "note: n1") {
		t.Fatalf("missing note")
	}
	if !strings.Contains(out, "333") {
		t.Fatalf("missing cell")
	}
}

// every generator must run without error and produce one row per
// pruning level (or its documented shape) at tiny scale.
func TestAllGeneratorsRun(t *testing.T) {
	sys := tinySys(t)
	type gen struct {
		id   string
		fn   func() (*Table, error)
		rows int // 0 = don't check
	}
	gens := []gen{
		{"fig1", func() (*Table, error) { return Fig1(sys) }, 4},
		{"fig2", func() (*Table, error) { return Fig2(sys) }, 4},
		{"table1", func() (*Table, error) { return Table1(sys) }, 0},
		{"fig3", func() (*Table, error) { return Fig3(sys) }, 4},
		{"fig4", func() (*Table, error) { return Fig4(sys) }, 4},
		{"fig5", func() (*Table, error) { return Fig5(sys) }, 4},
		{"fig8", Fig8, 2},
		{"fig9", func() (*Table, error) { return Fig9(sys) }, 4},
		{"table2", Table2, 0},
		{"table3", Table3, 0},
		{"util", func() (*Table, error) { return UtilizationTable(sys) }, 4},
		{"fig11", func() (*Table, error) { return Fig11(sys) }, 12},
		{"fig12", func() (*Table, error) { return Fig12(sys) }, 12},
		{"tail", func() (*Table, error) { return TailLatency(sys) }, 2},
		{"headline", func() (*Table, error) { return Headline(sys) }, 3},
		{"int8", func() (*Table, error) { return Int8Table(sys) }, 4},
		{"block", func() (*Table, error) { return BlockTable(sys) }, 10},
	}
	for _, g := range gens {
		tab, err := g.fn()
		if err != nil {
			t.Fatalf("%s: %v", g.id, err)
		}
		if tab.ID != g.id {
			t.Fatalf("%s: table id %q", g.id, tab.ID)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: no rows", g.id)
		}
		if g.rows > 0 && len(tab.Rows) != g.rows {
			t.Fatalf("%s: %d rows, want %d", g.id, len(tab.Rows), g.rows)
		}
		// all rows must be as wide as the header
		for i, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("%s row %d: %d cells, header %d", g.id, i, len(row), len(tab.Header))
			}
		}
	}
}

func TestFig3ConfidenceMonotone(t *testing.T) {
	sys := tinySys(t)
	tab, err := Fig3(sys)
	if err != nil {
		t.Fatal(err)
	}
	// confidence column must not increase from 0% to 90% pruning by
	// more than noise
	var confs []float64
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad confidence cell %q", row[3])
		}
		confs = append(confs, v)
	}
	if confs[len(confs)-1] >= confs[0] {
		t.Fatalf("90%% confidence %v not below baseline %v", confs[len(confs)-1], confs[0])
	}
}

// TestInt8TableWithinErrorBudget pins that the int8 experiment's
// measurements satisfy the int8 pass's error budget at the budgeted
// pruning levels: top-1 agreement >= 99% and WER within 0.5
// absolute points of float (docs/QUANT.md). Reading them back out of
// the rendered table also pins the column layout the notes cite.
func TestInt8TableWithinErrorBudget(t *testing.T) {
	sys := tinySys(t)
	tab, err := Int8Table(sys)
	if err != nil {
		t.Fatal(err)
	}
	budgeted := map[string]bool{"Baseline": true, "70%Pruning": true, "90%Pruning": true}
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", cell)
		}
		return v
	}
	var checked int
	for _, row := range tab.Rows {
		if !budgeted[row[0]] {
			continue
		}
		checked++
		if agr := parse(row[1]); agr < 0.99 {
			t.Errorf("%s: top-1 agreement %v < 0.99", row[0], row[1])
		}
		fWER, qWER := parse(row[6]), parse(row[7])
		if d := qWER - fWER; d > 0.5 || d < -0.5 {
			t.Errorf("%s: WER delta %.2f outside +-0.5 (float %v, int8 %v)", row[0], d, row[6], row[7])
		}
	}
	if checked != 3 {
		t.Fatalf("checked %d budgeted levels, want 3", checked)
	}
}

// TestInt8ErrorBudgetAfterCodebookQuantize stacks the full Deep
// Compression pipeline — prune, retrain, codebook-quantize — and then
// runs the int8 pass on top: the error budget must hold against the
// float plan on the same codebook-quantized weights.
func TestInt8ErrorBudgetAfterCodebookQuantize(t *testing.T) {
	sys := tinySys(t)
	qnet, _, err := quant.Quantize(sys.Models[90], 8)
	if err != nil {
		t.Fatal(err)
	}
	fltEx := dnn.Compile(qnet, dnn.PlanConfig{}).NewExec()
	qn := qkern.Compile(qnet)
	flt := make([][][]float64, len(sys.TestSet))
	q := make([][][]float64, len(sys.TestSet))
	for i, u := range sys.TestSet {
		for _, in := range speech.SpliceAll(u.Frames, sys.Scale.Context) {
			fv := make([]float64, sys.World.NumSenones())
			qv := make([]float64, sys.World.NumSenones())
			fltEx.LogPosteriors(fv, in)
			qn.LogPosteriors(qv, in)
			flt[i] = append(flt[i], fv)
			q[i] = append(q[i], qv)
		}
	}
	if agr := agreeTop1(flt, q); agr < 0.99 {
		t.Errorf("top-1 posterior agreement %.4f < 0.99 after codebook quantize", agr)
	}
	fltWER, qWER := corpusWER(sys, flt), corpusWER(sys, q)
	if d := qWER - fltWER; d > 0.5 || d < -0.5 {
		t.Errorf("WER delta %.2f outside +-0.5 (float %.2f%%, int8 %.2f%%)", d, fltWER, qWER)
	}
}

// TestFig3Int8ColumnsAppended pins that the int8 extension appended its
// columns at the end: the confidence cell stays at index 3 (the
// contract TestFig3ConfidenceMonotone and downstream parsers rely on)
// and the trailing agreement cell is a fraction.
func TestFig3Int8ColumnsAppended(t *testing.T) {
	sys := tinySys(t)
	tab, err := Fig3(sys)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Header[3]; got != "confidence" {
		t.Fatalf("header[3] = %q, want confidence", got)
	}
	last := len(tab.Header) - 1
	if got := tab.Header[last]; got != "int8 agree" {
		t.Fatalf("last header %q, want int8 agree", got)
	}
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[last], 64)
		if err != nil || v < 0 || v > 1 {
			t.Fatalf("row %s: int8 agree cell %q not a fraction", row[0], row[last])
		}
	}
}

func TestFig8MatchesPaperExample(t *testing.T) {
	tab, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	// after inserting 40 into the full 7-entry set, the heap must be
	// rooted at 80 with 100 evicted
	after := tab.Rows[1][1]
	if !strings.HasPrefix(after, "[80") {
		t.Fatalf("post-insert heap %q should be rooted at 80", after)
	}
	if strings.Contains(after, "100") {
		t.Fatalf("100 was not evicted: %q", after)
	}
	if !strings.Contains(after, "40") {
		t.Fatalf("40 missing from heap: %q", after)
	}
}

func TestFig7Shapes(t *testing.T) {
	sys := tinySys(t)
	tab, err := Fig7(sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(Fig7Ns) {
		t.Fatalf("fig7 rows = %d", len(tab.Rows))
	}
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatalf("bad WER cell %q", cell)
		}
		return v
	}
	// at the largest N, all three designs must be near the unbounded
	// baseline (large-N convergence)
	last := tab.Rows[len(tab.Rows)-1]
	for col := 1; col <= 3; col++ {
		if last[col] == "-" {
			continue
		}
		if parse(last[col]) > parse(tab.Rows[0][1])+50 {
			t.Fatalf("WER at max N looks divergent: %v", last)
		}
	}
}
