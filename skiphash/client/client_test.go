package client

import (
	"errors"
	"testing"

	"repro/internal/wire"
	"repro/skiphash"
)

// The full request/response paths are exercised end to end against a
// live server by internal/server's tests and skipstress -net; these
// unit tests pin the pure mappings.

func TestStatusErrorMapsToMapSentinels(t *testing.T) {
	cases := []struct {
		status wire.Status
		want   error
	}{
		{wire.StatusOK, nil},
		{wire.StatusNotDurable, skiphash.ErrNotDurable},
		{wire.StatusCorrupt, skiphash.ErrCorrupt},
		{wire.StatusBusy, ErrServerBusy},
		{wire.StatusShuttingDown, ErrShuttingDown},
		{wire.StatusNsNotFound, ErrNamespaceNotFound},
		{wire.StatusNsExists, ErrNamespaceExists},
	}
	for _, c := range cases {
		err := statusError(&wire.Response{Status: c.status, Msg: "m"})
		if c.want == nil {
			if err != nil {
				t.Fatalf("%s: err = %v, want nil", c.status, err)
			}
			continue
		}
		if !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, not errors.Is %v", c.status, err, c.want)
		}
	}
	if err := statusError(&wire.Response{Status: wire.StatusErr, Msg: "disk exploded"}); err == nil {
		t.Fatal("StatusErr mapped to nil")
	}
}

func TestTypedErrorsAreTheMapsOwn(t *testing.T) {
	// The client's sentinels must be identical to the embedded map's, so
	// call sites behave the same against a local and a served map.
	if !errors.Is(ErrNotDurable, skiphash.ErrNotDurable) ||
		!errors.Is(ErrCorrupt, skiphash.ErrCorrupt) {
		t.Fatal("client sentinels diverged from skiphash sentinels")
	}
}

func TestRefusalError(t *testing.T) {
	if err := refusalError(&wire.Response{Status: wire.StatusBusy}); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("busy refusal = %v", err)
	}
	if err := refusalError(&wire.Response{Status: wire.StatusShuttingDown}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("shutdown refusal = %v", err)
	}
	if err := refusalError(&wire.Response{Status: wire.StatusOK}); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("unexpected id-0 frame = %v, want ErrConnClosed wrap", err)
	}
}

func TestDialRejectsUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", Options{DialTimeout: 100_000_000}); err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
}
