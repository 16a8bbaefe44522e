package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

// TestUsageAndAllListTheKeptExperiments pins the subcommand list: the
// usage line names exactly the kept experiments, and "all" prints one
// table per experiment (six for Figure 5) in that order.
func TestUsageAndAllListTheKeptExperiments(t *testing.T) {
	const want = "<fig5|fig6|table1|churn|persist|read|repl|all>"
	if !strings.Contains(usage(), want) {
		t.Errorf("usage does not list %s:\n%s", want, usage())
	}

	var out bytes.Buffer
	opts := bench.Options{Duration: 2 * time.Millisecond, Trials: 1, Universe: 1024, Threads: []int{2}}
	if err := runAll(&out, params{mix: "a", windows: 1, dir: t.TempDir()}, opts); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	var titles []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "# ") {
			titles = append(titles, line)
		}
	}
	wantTitles := []string{
		"# Figure 5a:", "# Figure 5b:", "# Figure 5c:", "# Figure 5d:", "# Figure 5e:", "# Figure 5f:",
		"# Figure 6:", "# Table 1:", "# Churn:", "# Persist:", "# Read fast path:", "# Repl:",
	}
	if len(titles) != len(wantTitles) {
		t.Fatalf("all printed %d tables, want %d:\n%s", len(titles), len(wantTitles), strings.Join(titles, "\n"))
	}
	for i, prefix := range wantTitles {
		if !strings.HasPrefix(titles[i], prefix) {
			t.Errorf("table %d is %q, want %q", i, titles[i], prefix)
		}
	}
}

func TestParseThreads(t *testing.T) {
	tests := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"1", []int{1}, false},
		{"1,4,8", []int{1, 4, 8}, false},
		{" 2 , 6 ", []int{2, 6}, false},
		{"", nil, true},
		{"0", nil, true},
		{"-3", nil, true},
		{"x", nil, true},
		{"1,,2", nil, true},
	}
	for _, tt := range tests {
		got, err := parseThreads(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseThreads(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if len(got) != len(tt.want) {
			t.Errorf("parseThreads(%q) = %v, want %v", tt.in, got, tt.want)
			continue
		}
		for i := range tt.want {
			if got[i] != tt.want[i] {
				t.Errorf("parseThreads(%q) = %v, want %v", tt.in, got, tt.want)
				break
			}
		}
	}
}
