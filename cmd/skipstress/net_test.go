package main

import (
	"testing"
	"time"
)

// TestNetNamespacesSmoke runs the -net -namespaces 2 mode in process:
// the default map and two namespaces under the linearizability checker,
// v1 and v2 frames interleaved on four shared connections, then the
// drop-isolation check, a graceful drain and the invariant audit.
func TestNetNamespacesSmoke(t *testing.T) {
	if err := runNet(4, 500*time.Millisecond, 1, 0, 2, 0); err != nil {
		t.Fatal(err)
	}
}
