package bench

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"sdnshield/internal/netsim"
	"sdnshield/internal/of"
)

func TestTable1AttackCoverage(t *testing.T) {
	// §IX-B1: the original controller is vulnerable to all four attacks;
	// the SDNShield-enabled controller is immune to all of them.
	outcomes, err := RunEffectiveness(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 8 {
		t.Fatalf("expected 8 outcomes, got %d", len(outcomes))
	}
	for _, o := range outcomes {
		switch o.Runtime {
		case "baseline":
			if !o.Succeeded {
				t.Errorf("class %d should succeed on the baseline controller: %+v", o.Class, o)
			}
		case "sdnshield":
			if o.Succeeded {
				t.Errorf("class %d must be blocked by SDNShield: %+v", o.Class, o)
			}
			if o.DeniedSteps == 0 && !o.LaunchDenied {
				t.Errorf("class %d: no denial recorded despite protection: %+v", o.Class, o)
			}
		default:
			t.Errorf("unknown runtime %q", o.Runtime)
		}
	}

	rendered := FormatTable1(outcomes)
	for _, want := range []string{"Table I", "vulnerable", "protected", "tunneling"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered table missing %q:\n%s", want, rendered)
		}
	}
	t.Logf("\n%s", rendered)
}

func TestReconciliationEffectiveness(t *testing.T) {
	// §IX-B1 second experiment: over-privileged manifests are cut down by
	// the attack-pattern security policy. No attacker's requested manifest
	// passes clean, and what reconciliation grants lies strictly inside
	// what was requested.
	for _, a := range attacks {
		b, err := netsim.Linear(a.switches) // unwired: only its hosts' addresses
		if err != nil {
			t.Fatal(err)
		}
		res, err := reconciled(a.app(b.Hosts))
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if res.Clean {
			t.Errorf("%s: requested manifest passed reconciliation unrepaired", a.name)
		}
		inside, err := res.Requested.Includes(res.Reconciled)
		if err != nil {
			t.Fatal(err)
		}
		covers, err := res.Reconciled.Includes(res.Requested)
		if err != nil {
			t.Fatal(err)
		}
		if !inside || covers {
			t.Errorf("%s: reconciled %v is not strictly inside requested %v", a.name, res.Reconciled, res.Requested)
		}
	}
}

// refusingConn fails every send, so the kernel's handshake over it fails
// at once.
type refusingConn struct{ of.Conn }

func (refusingConn) Send(of.Message) error { return errors.New("connection refused") }

func TestTable1ReportsHarnessFailures(t *testing.T) {
	// The first network's first switch refuses its handshake: that row is
	// a named harness failure and the other seven are still measured.
	refused := false
	outcomes, err := RunEffectiveness(func(_ of.DPID, conn of.Conn) of.Conn {
		if refused {
			return conn
		}
		refused = true
		return refusingConn{conn}
	})
	if err == nil {
		t.Error("a harness failure must surface in the returned error")
	}
	if len(outcomes) != 2*len(attacks) {
		t.Fatalf("expected %d outcomes, got %d", 2*len(attacks), len(outcomes))
	}
	for i, o := range outcomes {
		if i == 0 {
			if o.Err == nil {
				t.Errorf("refused handshake recorded no harness failure: %+v", o)
			}
			continue
		}
		if o.Err != nil {
			t.Errorf("class %d on %s: %v", o.Class, o.Runtime, o.Err)
		}
		if o.Succeeded != (o.Runtime == "baseline") {
			t.Errorf("class %d on %s measured wrong: %+v", o.Class, o.Runtime, o)
		}
	}
	if rendered := FormatTable1(outcomes); !strings.Contains(rendered, "harness failure") {
		t.Errorf("rendered table does not name the harness failure:\n%s", rendered)
	}
}

func TestAttackEnvStopsWhatItStartedOnWireFailure(t *testing.T) {
	// The second switch refuses its handshake after the first was
	// accepted: the kernel and every started netsim switch must stop.
	before := runtime.NumGoroutine()
	_, err := newAttackEnv(3, "baseline", func(dpid of.DPID, conn of.Conn) of.Conn {
		if dpid == 2 {
			return refusingConn{conn}
		}
		return conn
	})
	if err == nil {
		t.Fatal("a refused handshake must fail the network's wiring")
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("wiring failure left %d goroutines running", runtime.NumGoroutine()-before)
		}
	}
}
