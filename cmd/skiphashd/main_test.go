package main

import (
	"strings"
	"testing"
)

// TestNsFlagsSet: -ns takes a namespace name; the removed name=dir and
// name=dir:fsync forms are refused with an error pointing at -ns-root.
func TestNsFlagsSet(t *testing.T) {
	for _, tc := range []struct {
		in      string
		wantErr bool
	}{
		{in: "a"},
		{in: "a=/d", wantErr: true},
		{in: "a=/d:always", wantErr: true},
		{in: "=/d", wantErr: true},
	} {
		var f nsFlags
		err := f.Set(tc.in)
		switch {
		case tc.wantErr:
			if err == nil || !strings.Contains(err.Error(), "-ns-root") {
				t.Errorf("Set(%q) = %v, want an error pointing at -ns-root", tc.in, err)
			}
			if len(f) != 0 {
				t.Errorf("Set(%q) failed but kept %q", tc.in, f)
			}
		case err != nil:
			t.Errorf("Set(%q): %v", tc.in, err)
		case len(f) != 1 || f[0] != tc.in:
			t.Errorf("Set(%q) = %q, want [%q]", tc.in, f, tc.in)
		}
	}
	var f nsFlags
	for _, v := range []string{"a", "b"} {
		if err := f.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
	}
	if got := f.String(); got != "a,b" {
		t.Errorf("String() after two flags = %q, want a,b", got)
	}
}
