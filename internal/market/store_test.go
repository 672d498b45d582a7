package market

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestKeygenAndLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pub, err := Keygen(dir, "acme")
	if err != nil {
		t.Fatal(err)
	}
	gotPub, err := LoadPublicKey(filepath.Join(dir, "keys", "acme.pub"))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotPub) != string(pub) {
		t.Fatal("public key did not round-trip")
	}
	priv, err := LoadPrivateKey(filepath.Join(dir, "keys", "acme.key"))
	if err != nil {
		t.Fatal(err)
	}
	sr := Sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"}, priv)
	if !sr.VerifySignature(pub) {
		t.Fatal("keygen pair does not sign/verify")
	}
	// Existing keys are never overwritten.
	if _, err := Keygen(dir, "acme"); err == nil {
		t.Fatal("Keygen overwrote an existing key")
	}
	// Hostile vendor names are refused before touching the filesystem.
	if _, err := Keygen(dir, "../evil"); err == nil {
		t.Fatal("path-traversal vendor name accepted")
	}
}

func TestSaveAndLoadDir(t *testing.T) {
	dir := t.TempDir()
	if _, err := Keygen(dir, "acme"); err != nil {
		t.Fatal(err)
	}
	priv, err := LoadPrivateKey(filepath.Join(dir, "keys", "acme.key"))
	if err != nil {
		t.Fatal(err)
	}
	good := Sign(Release{Name: "mon", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"}, priv)
	if _, err := SaveRelease(dir, good); err != nil {
		t.Fatal(err)
	}

	// A tampered file: saved, then edited on disk.
	bad := Sign(Release{Name: "evil", Vendor: "acme", Version: "1.0.0", Manifest: "PERM read_statistics"}, priv)
	badPath, err := SaveRelease(dir, bad)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(badPath)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(data), "PERM read_statistics", "PERM process_runtime", 1)
	if err := os.WriteFile(badPath, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	loaded, problems, err := LoadDir(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 {
		t.Fatalf("loaded = %d, want 1 (good release only)", loaded)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "digest") {
		t.Fatalf("problems = %v, want one digest mismatch", problems)
	}
	if _, err := reg.Release(good.Digest()); err != nil {
		t.Fatalf("good release not loaded: %v", err)
	}
	if len(reg.Releases("evil")) != 0 {
		t.Fatal("tampered release was loaded")
	}
}

func TestLoadDirMissingIsEmpty(t *testing.T) {
	reg := NewRegistry()
	loaded, problems, err := LoadDir(filepath.Join(t.TempDir(), "nope"), reg)
	if err != nil || loaded != 0 || len(problems) != 0 {
		t.Fatalf("loaded=%d problems=%v err=%v", loaded, problems, err)
	}
}

// TestKeygenFileModes: the private key is written 0600 and the public
// key 0644 — the modes asked for, not the temp file's — and a second
// Keygen still refuses to overwrite them.
func TestKeygenFileModes(t *testing.T) {
	dir := t.TempDir()
	if _, err := Keygen(dir, "acme"); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]os.FileMode{"acme.key": 0o600, "acme.pub": 0o644} {
		st, err := os.Stat(filepath.Join(dir, "keys", name))
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Mode().Perm(); got != want {
			t.Errorf("%s mode = %v, want %v", name, got, want)
		}
	}
	if _, err := Keygen(dir, "acme"); err == nil || !strings.Contains(err.Error(), "refusing to overwrite") {
		t.Fatalf("second Keygen: err = %v, want a refusal", err)
	}
}
