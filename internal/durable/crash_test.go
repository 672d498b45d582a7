package durable_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"sdnshield/internal/durable"
)

var errCrashed = errors.New("crashed")

// node is one file's bytes: what was written, and what the last fsync
// made durable.
type node struct{ data, synced []byte }

// crashFS is a write-through durable.FS that also models what a power
// loss would keep: a file's bytes as of its last fsync, and a
// directory's entries (files and subdirectories) as of its last
// dir-sync. Every mutating call is one op; once stop says so the
// process has crashed: that op and every later one fail, and the model
// freezes. Directories under root that no op created are not modelled,
// so a scenario creates everything below root through the package.
// A file another process wrote is adopted as durable when first touched.
type crashFS struct {
	mu      sync.Mutex
	root    string
	stop    func(n int, op string) bool
	ops     []string
	crashed bool

	live, dur         map[string]*node
	liveDirs, durDirs map[string]bool
}

func newCrashFS(root string, stop func(n int, op string) bool) *crashFS {
	return &crashFS{
		root: root, stop: stop,
		live: map[string]*node{}, dur: map[string]*node{},
		liveDirs: map[string]bool{}, durDirs: map[string]bool{},
	}
}

// tmpSuffix is the random part of a temp file's name; ops are logged
// without it so two runs of a scenario log the same sequence.
var tmpSuffix = regexp.MustCompile(`\.tmp-[0-9]+$`)

// step admits one op, or crashes. Caller holds c.mu.
func (c *crashFS) step(op, path string) error {
	if c.crashed {
		return errCrashed
	}
	rel, _ := filepath.Rel(c.root, path)
	op += " " + tmpSuffix.ReplaceAllString(filepath.ToSlash(rel), ".tmp-*")
	if c.stop != nil && c.stop(len(c.ops)+1, op) {
		c.crashed = true
		return errCrashed
	}
	c.ops = append(c.ops, op)
	return nil
}

func (c *crashFS) Mkdir(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step("mkdir", dir); err != nil {
		return err
	}
	if err := durable.OS.Mkdir(dir); err != nil {
		return err
	}
	c.liveDirs[dir] = true
	return nil
}

func (c *crashFS) CreateTemp(dir, pattern string) (durable.File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step("create", filepath.Join(dir, pattern)); err != nil {
		return nil, err
	}
	f, err := durable.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	n := &node{}
	c.live[f.Name()] = n
	return &crashFile{File: f, fs: c, n: n}, nil
}

// nodeOf returns path's node, adopting a file that existed before c as
// durable. Caller holds c.mu.
func (c *crashFS) nodeOf(path string) (*node, error) {
	if n := c.live[path]; n != nil {
		return n, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	n := &node{data: data, synced: data}
	c.live[path], c.dur[path] = n, n
	return n, nil
}

// OpenAppend is no op of its own: it changes nothing on disk.
func (c *crashFS) OpenAppend(path string) (durable.File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, err := c.nodeOf(path)
	if err != nil {
		return nil, err
	}
	f, err := durable.OS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &crashFile{File: f, fs: c, n: n}, nil
}

func (c *crashFS) Rename(from, to string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step("rename", to); err != nil {
		return err
	}
	if err := durable.OS.Rename(from, to); err != nil {
		return err
	}
	c.live[to] = c.live[from]
	delete(c.live, from)
	return nil
}

func (c *crashFS) Remove(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step("remove", path); err != nil {
		return err
	}
	if err := durable.OS.Remove(path); err != nil {
		return err
	}
	delete(c.live, path)
	return nil
}

func (c *crashFS) Truncate(path string, size int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step("truncate", path); err != nil {
		return err
	}
	n, err := c.nodeOf(path)
	if err != nil {
		return err
	}
	if err := durable.OS.Truncate(path, size); err != nil {
		return err
	}
	n.data = n.data[:size:size]
	return nil
}

// SyncDir makes dir's current entries its durable ones.
func (c *crashFS) SyncDir(dir string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step("dirsync", dir); err != nil {
		return err
	}
	if err := durable.OS.SyncDir(dir); err != nil {
		return err
	}
	for p := range c.dur {
		if filepath.Dir(p) == dir {
			delete(c.dur, p)
		}
	}
	for p, n := range c.live {
		if filepath.Dir(p) == dir {
			c.dur[p] = n
		}
	}
	for d := range c.liveDirs {
		if filepath.Dir(d) == dir {
			c.durDirs[d] = true
		}
	}
	return nil
}

// crashFile passes a real file through, recording its writes and syncs.
type crashFile struct {
	durable.File
	fs *crashFS
	n  *node
}

func (f *crashFile) Write(p []byte) (int, error) {
	c := f.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step("write", f.Name()); err != nil {
		return 0, err
	}
	k, err := f.File.Write(p)
	f.n.data = append(f.n.data, p[:k]...)
	return k, err
}

func (f *crashFile) Sync() error {
	c := f.fs
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.step("fsync", f.Name()); err != nil {
		return err
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.n.synced = append([]byte(nil), f.n.data...)
	return nil
}

// materialise freezes the model and writes what a power loss would have
// kept into dst: every durably linked directory and file whose every
// ancestor below root is durably linked too, files with their synced
// bytes.
func (c *crashFS) materialise(t *testing.T, dst string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crashed = true
	reachable := func(p string) bool {
		for d := filepath.Dir(p); d != c.root; d = filepath.Dir(d) {
			if !c.durDirs[d] {
				return false
			}
		}
		return true
	}
	out := func(p string) string {
		rel, err := filepath.Rel(c.root, p)
		if err != nil || strings.HasPrefix(rel, "..") {
			t.Fatalf("crashFS: %s is outside %s", p, c.root)
		}
		return filepath.Join(dst, rel)
	}
	for d := range c.durDirs {
		if reachable(d) {
			if err := os.MkdirAll(out(d), 0o755); err != nil {
				t.Fatal(err)
			}
		}
	}
	for p, n := range c.dur {
		if reachable(p) {
			if err := os.WriteFile(out(p), n.synced, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// scenario runs a sequence of store calls under root and returns the
// check a store reopened on a crashed copy of root must pass. It records
// which calls returned, and stops at the first that failed: after a
// crash every mutating call fails.
type scenario func(t *testing.T, root string) (check func(t *testing.T, dir string))

// enumerate runs sc once to count its ops, K, then for every k ≤ K runs
// it again with a crash after k ops, materialises what a power loss at
// that point would have kept, and checks a reopened copy. k = K is a
// power loss once everything has returned.
func enumerate(t *testing.T, sc scenario) {
	base := t.TempDir()
	run := func(name string, stop func(int, string) bool) (*crashFS, func(*testing.T, string)) {
		root := filepath.Join(base, name)
		if err := os.Mkdir(root, 0o755); err != nil {
			t.Fatal(err)
		}
		c := newCrashFS(root, stop)
		restore := durable.SetFS(c)
		defer restore()
		return c, sc(t, root)
	}
	full, _ := run("count", nil)
	K := len(full.ops)
	if K == 0 {
		t.Fatal("scenario made no ops")
	}
	for k := 0; k <= K; k++ {
		c, check := run(fmt.Sprintf("run%d", k), func(n int, _ string) bool { return n > k })
		if got := strings.Join(c.ops, "\n"); got != strings.Join(full.ops[:k], "\n") {
			t.Fatalf("crash at %d: op sequence is not deterministic:\n%s\nwant\n%s", k, got, strings.Join(full.ops[:k], "\n"))
		}
		dst := filepath.Join(base, fmt.Sprintf("disk%d", k))
		c.materialise(t, dst)
		last := "(none)"
		if k > 0 {
			last = full.ops[k-1]
		}
		t.Run(fmt.Sprintf("after_%d_of_%d", k, K), func(t *testing.T) {
			t.Logf("last op before the crash: %s", last)
			check(t, dst)
		})
	}
}
