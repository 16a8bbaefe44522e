package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"
)

func tinyOptions() Options {
	return Options{
		Duration: 30 * time.Millisecond,
		Trials:   1,
		Universe: 4096,
		Threads:  []int{2},
	}
}

func TestPrefillPopulatesAboutHalf(t *testing.T) {
	m := NewSkipHash("two-path", 1021)
	universe := int64(10000)
	pop := Prefill(m, universe, 3)
	if pop < universe*4/10 || pop > universe*6/10 {
		t.Errorf("population = %d, want about %d", pop, universe/2)
	}
	w := m.NewWorker()
	if got := w.Range(0, universe); int64(got) != pop {
		t.Errorf("full range sees %d pairs, prefill reported %d", got, pop)
	}
}

func TestRunProducesThroughput(t *testing.T) {
	m := NewSkipHash("two-path", 1021)
	res := Run(m, Workload{Name: "mix", LookupPct: 80, UpdatePct: 10, RangePct: 10, Universe: 4096},
		RunConfig{Threads: 4, Duration: 50 * time.Millisecond})
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.RangeOps == 0 {
		t.Error("no range queries completed in a 10% range mix")
	}
	if res.Mops() <= 0 {
		t.Error("non-positive throughput")
	}
}

func TestRunSplitSeparatesRoles(t *testing.T) {
	m := NewBundleSkip("hwclock")
	res := RunSplit(m, 2, 2, 64, 4096, RunConfig{Duration: 50 * time.Millisecond})
	if res.UpdateOps == 0 {
		t.Error("update threads made no progress")
	}
	if res.RangeOps == 0 {
		t.Error("range threads made no progress")
	}
}

func TestAllAdaptersRunAllWorkloads(t *testing.T) {
	factories := append(Fig5Maps(true),
		MapFactory{Name: "bst-vcas-counter", New: func() Map { return NewVcasBST("counter") }},
		MapFactory{Name: "skiplist-vcas-counter", New: func() Map { return NewVcasSkip("counter") }},
		MapFactory{Name: "skiplist-bundled-counter", New: func() Map { return NewBundleSkip("counter") }},
	)
	for _, mf := range factories {
		mf := mf
		t.Run(mf.Name, func(t *testing.T) {
			t.Parallel()
			m := mf.New()
			wl := Workload{LookupPct: 50, UpdatePct: 40, RangePct: 10, Universe: 2048}
			if !m.SupportsRange() {
				wl = Workload{LookupPct: 60, UpdatePct: 40, Universe: 2048}
			}
			res := Run(m, wl, RunConfig{Threads: 2, Duration: 30 * time.Millisecond})
			if res.Ops == 0 {
				t.Error("no operations completed")
			}
		})
	}
}

func TestFig5Driver(t *testing.T) {
	var out, csv bytes.Buffer
	opts := tinyOptions()
	opts.CSV = &csv
	if err := Fig5(&out, "d", opts); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "skiphash-two-path") {
		t.Errorf("missing series in output:\n%s", text)
	}
	if !strings.Contains(csv.String(), "fig5d,skiphash-two-path,2,") {
		t.Errorf("missing CSV rows:\n%s", csv.String())
	}
}

func TestFig5RejectsUnknownLetter(t *testing.T) {
	var out bytes.Buffer
	if err := Fig5(&out, "z", tinyOptions()); err == nil {
		t.Error("expected error for unknown workload letter")
	}
}

func TestTable1Driver(t *testing.T) {
	var out bytes.Buffer
	opts := tinyOptions()
	if err := Table1(&out, opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "aborts/query") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestThreadCountsBounded(t *testing.T) {
	counts := ThreadCounts()
	if len(counts) == 0 || counts[0] != 1 {
		t.Fatalf("ThreadCounts = %v", counts)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] <= counts[i-1] {
			t.Errorf("ThreadCounts not increasing: %v", counts)
		}
	}
}

func TestWorkloadDefaults(t *testing.T) {
	w := Workload{}.withDefaults()
	if w.Universe != 1_000_000 || w.RangeLen != 100 {
		t.Errorf("defaults = %+v", w)
	}
}

// TestDriversSmoke runs every experiment skipbench still offers at a
// few milliseconds per data point: a driver that errors or prints no
// rows fails here, not in a CI step's go run.
func TestDriversSmoke(t *testing.T) {
	drivers := []struct {
		name string
		run  func(w io.Writer, opts Options) error
	}{
		{"fig5", func(w io.Writer, opts Options) error { return Fig5(w, "d", opts) }},
		{"fig6", Fig6},
		{"table1", Table1},
		{"churn", func(w io.Writer, opts Options) error { return Churn(w, 2, opts) }},
		{"persist", func(w io.Writer, opts Options) error { return Persist(w, t.TempDir(), opts) }},
		{"read", ReadBench},
		{"repl", Repl},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := d.run(&out, tinyOptions()); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			// A table is its "# ..." title, a column header and data rows.
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if !strings.HasPrefix(lines[0], "# ") || len(lines) < 3 {
				t.Errorf("no table printed:\n%s", out.String())
			}
		})
	}
}
