package main

import (
	"strings"
	"testing"

	"repro/internal/wire"
)

// TestNsFlagsSet covers the -ns forms: name (in-memory), name=dir, and
// name=dir:fsync with every policy, plus the values it refuses.
func TestNsFlagsSet(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    nsSpec
		wantErr string
	}{
		{in: "a", want: nsSpec{name: "a", fsync: wire.NsFsyncDefault}},
		{in: "a=/d", want: nsSpec{name: "a", dir: "/d", fsync: wire.NsFsyncDefault}},
		{in: "a=/d:default", want: nsSpec{name: "a", dir: "/d", fsync: wire.NsFsyncDefault}},
		{in: "a=/d:none", want: nsSpec{name: "a", dir: "/d", fsync: wire.NsFsyncNone}},
		{in: "a=/d:interval", want: nsSpec{name: "a", dir: "/d", fsync: wire.NsFsyncInterval}},
		{in: "a=/d:always", want: nsSpec{name: "a", dir: "/d", fsync: wire.NsFsyncAlways}},
		{in: "", wantErr: "empty namespace name"},
		{in: "=/d", wantErr: "empty namespace name"},
		{in: "a=", wantErr: "empty directory"},
		{in: "a=:always", wantErr: "empty directory"},
		{in: "a=/d:sometimes", wantErr: `unknown fsync policy "sometimes"`},
	} {
		var f nsFlags
		err := f.Set(tc.in)
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Set(%q) = %v, want an error saying %q", tc.in, err, tc.wantErr)
			}
			if len(f) != 0 {
				t.Errorf("Set(%q) failed but kept %+v", tc.in, f)
			}
		case err != nil:
			t.Errorf("Set(%q): %v", tc.in, err)
		case len(f) != 1 || f[0] != tc.want:
			t.Errorf("Set(%q) = %+v, want [%+v]", tc.in, f, tc.want)
		}
	}
	var f nsFlags
	for _, v := range []string{"a", "b=/d:always"} {
		if err := f.Set(v); err != nil {
			t.Fatalf("Set(%q): %v", v, err)
		}
	}
	if got := f.String(); got != "a,b" {
		t.Errorf("String() after two flags = %q, want a,b", got)
	}
}
