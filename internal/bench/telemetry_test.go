package bench

import (
	"bufio"
	"encoding/json"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"sdnshield/internal/obs"
	"sdnshield/internal/obs/span"
)

// TestStartSLOServesObjectives: the CLI-facing SLO wiring installs the
// default engine with the five shipped objectives, and /slo serves them.
func TestStartSLOServesObjectives(t *testing.T) {
	stop := StartSLO(true)
	defer stop()
	srv := httptest.NewServer(obs.NewHandler(obs.Default()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Enabled    bool                  `json:"enabled"`
		Objectives []obs.ObjectiveStatus `json:"objectives"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !got.Enabled {
		t.Fatal("/slo reports disabled while the engine is running")
	}
	names := make(map[string]bool)
	for _, o := range got.Objectives {
		names[o.Name] = true
	}
	for _, want := range []string{
		"market_install_p99", "job_queue_wait_p95", "mediated_call_p99",
		"verdict_cache_hit_ratio", "job_dead_letter_rate",
	} {
		if !names[want] {
			t.Errorf("/slo missing objective %q (have %v)", want, names)
		}
	}
	if len(got.Objectives) < 5 {
		t.Fatalf("/slo serves %d objectives, want >= 5", len(got.Objectives))
	}

	stop() // idempotent with the deferred call
	if obs.DefaultSLO() != nil {
		t.Fatal("stop left the default SLO engine installed")
	}
}

func TestStartSLODisabledIsNoop(t *testing.T) {
	stop := StartSLO(false)
	stop()
	if obs.DefaultSLO() != nil {
		t.Fatal("StartSLO(false) installed an engine")
	}
}

// TestStartTraceSink wires the default collector to a JSONL file the
// way the CLIs' -trace-file flag does, and checks spans reach disk.
func TestStartTraceSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	stop, err := StartTraceSink(path)
	if err != nil {
		t.Fatal(err)
	}
	sp := span.Root(7_331_001, "sink:e2e")
	sp.Annotate("exported")
	sp.End()
	stop()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	found := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec span.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("sink line not JSONL: %v", err)
		}
		if rec.TraceID == 7_331_001 && rec.Name == "sink:e2e" {
			found = true
		}
	}
	if !found {
		t.Fatal("root span never reached the trace sink file")
	}

	// "" means off, with a non-nil stop.
	noop, err := StartTraceSink("")
	if err != nil {
		t.Fatal(err)
	}
	noop()
}

// sharedTelemetryFlags is the set every CLI must offer, with its default.
var sharedTelemetryFlags = map[string]string{
	"telemetry-addr": "", "audit-file": "", "trace-file": "", "slo": "false",
	"bundle-dir": "", "prof-dir": "", "tenant": "",
}

func TestRegisterTelemetryFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	RegisterTelemetryFlags(fs)
	got := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) {
		got[f.Name] = f.DefValue
		if f.Usage == "" {
			t.Errorf("-%s has no help text", f.Name)
		}
	})
	if len(got) != len(sharedTelemetryFlags) {
		t.Errorf("registered %d flags, want %d: %v", len(got), len(sharedTelemetryFlags), got)
	}
	for name, def := range sharedTelemetryFlags {
		if d, ok := got[name]; !ok || d != def {
			t.Errorf("-%s: registered=%v default %q, want default %q", name, ok, d, def)
		}
	}
	fs.SetOutput(new(strings.Builder))
	if err := fs.Parse([]string{"-tenant", "Not A Tenant"}); err == nil {
		t.Error("a malformed -tenant must fail the parse")
	}
}

// TestTelemetryStartUnwinds: when a later sink cannot start, what already
// started is stopped again — here the endpoint's listener.
func TestTelemetryStartUnwinds(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := RegisterTelemetryFlags(fs)
	args := []string{"-telemetry-addr", "127.0.0.1:0", "-audit-file", filepath.Join(t.TempDir(), "missing", "audit.jsonl")}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	stop, err := f.Start()
	if err == nil {
		stop()
		t.Fatal("Start succeeded with an audit file in a directory that does not exist")
	}
	if f.Bound == "" {
		t.Fatal("the endpoint never started, so the unwind was not exercised")
	}
	if conn, err := net.DialTimeout("tcp", f.Bound, time.Second); err == nil {
		conn.Close()
		t.Errorf("telemetry endpoint still listening on %s after a failed Start", f.Bound)
	}
}

// TestCLIsShareTelemetryFlags: each CLI takes the shared block from
// RegisterTelemetryFlags and defines none of its flags by hand, so the
// three cannot drift apart in names, defaults or help text again.
func TestCLIsShareTelemetryFlags(t *testing.T) {
	for _, cli := range []string{"attacksim", "sdnbench", "sdnshieldc"} {
		t.Run(cli, func(t *testing.T) {
			file, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "..", "cmd", cli, "main.go"), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			registers := 0
			var byHand []string
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv, _ := sel.X.(*ast.Ident)
				if recv != nil && recv.Name == "bench" && sel.Sel.Name == "RegisterTelemetryFlags" {
					registers++
				}
				// fs.String("name", ...), fs.Bool("name", ...), fs.Func("name", ...)
				if recv != nil && recv.Name == "fs" && len(call.Args) > 0 {
					if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if name, _ := strconv.Unquote(lit.Value); name != "" {
							if _, shared := sharedTelemetryFlags[name]; shared {
								byHand = append(byHand, name)
							}
						}
					}
				}
				return true
			})
			sort.Strings(byHand)
			if registers != 1 || len(byHand) != 0 {
				t.Errorf("cmd/%s: %d RegisterTelemetryFlags calls (want 1), shared flags defined by hand: %v", cli, registers, byHand)
			}
		})
	}
}
