package market

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sdnshield/internal/durable"
	"sdnshield/internal/obs/audit"
)

// Store layout under a market directory:
//
//	DIR/keys/<vendor>.pub   trusted vendor public key, hex
//	DIR/keys/<vendor>.key   vendor private key, hex (created by Keygen;
//	                        a controller-side store normally has none)
//	DIR/releases/<digest>.json  signed release package
//
// The store is deliberately dumb — flat files, content-addressed names —
// so packages can be shipped, diffed and inspected with standard tools,
// and a tampered file is caught by the digest/signature re-check on
// load.

// Keygen generates a vendor keypair under dir/keys and returns the
// public key. Existing key files are refused rather than overwritten.
func Keygen(dir, vendor string) (ed25519.PublicKey, error) {
	if err := validName(vendor); err != nil {
		return nil, err
	}
	keyDir := filepath.Join(dir, "keys")
	pubPath := filepath.Join(keyDir, vendor+".pub")
	keyPath := filepath.Join(keyDir, vendor+".key")
	for _, p := range []string{pubPath, keyPath} {
		if _, err := os.Stat(p); err == nil {
			return nil, fmt.Errorf("market: refusing to overwrite existing %s", p)
		}
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	if err := durable.WriteFile(pubPath, []byte(hex.EncodeToString(pub)+"\n"), 0o644); err != nil {
		return nil, err
	}
	if err := durable.WriteFile(keyPath, []byte(hex.EncodeToString(priv)+"\n"), 0o600); err != nil {
		return nil, err
	}
	return pub, nil
}

// LoadPrivateKey reads a hex-encoded Ed25519 private key file.
func LoadPrivateKey(path string) (ed25519.PrivateKey, error) {
	return loadKey(path, "private", ed25519.PrivateKeySize)
}

// LoadPublicKey reads a hex-encoded Ed25519 public key file.
func LoadPublicKey(path string) (ed25519.PublicKey, error) {
	return loadKey(path, "public", ed25519.PublicKeySize)
}

func loadKey(path, kind string, size int) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	raw, err := hex.DecodeString(strings.TrimSpace(string(b)))
	if err != nil {
		return nil, fmt.Errorf("market: bad key file %s: %w", path, err)
	}
	if len(raw) != size {
		return nil, fmt.Errorf("market: bad %s key size %d in %s", kind, len(raw), path)
	}
	return raw, nil
}

// SaveRelease writes a signed package under dir/releases, named by its
// content address, atomically and durably.
func SaveRelease(dir string, sr *SignedRelease) (string, error) {
	data, err := json.MarshalIndent(sr, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "releases", sr.Digest().String()+".json")
	if err := durable.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadDir populates a registry from a market directory: every key under
// keys/ is trusted, then every package under releases/ is submitted
// through the full provenance gate. Tampered or unverifiable packages
// are skipped and reported in the returned problem list (the registry
// stays usable; the administrator sees exactly what was refused), and
// each skip lands in the audit journal so on-disk corruption is
// attributable after the fact, not just at boot.
func LoadDir(dir string, reg *Registry) (loaded int, problems []string, err error) {
	skip := func(what string, err error) {
		problems = append(problems, fmt.Sprintf("%s: %v", what, err))
		if audit.On() {
			audit.Emit(audit.Event{
				Kind: audit.KindMarket, Verdict: audit.VerdictReject, Op: "load",
				Detail: fmt.Sprintf("store %s: skipped %s: %v", dir, what, err),
			})
		}
	}
	keyDir := filepath.Join(dir, "keys")
	if entries, err := os.ReadDir(keyDir); err == nil {
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".pub") {
				continue
			}
			vendor := strings.TrimSuffix(e.Name(), ".pub")
			pub, err := LoadPublicKey(filepath.Join(keyDir, e.Name()))
			if err != nil {
				skip("key "+e.Name(), err)
				continue
			}
			if err := reg.TrustVendor(vendor, pub); err != nil {
				skip("key "+e.Name(), err)
			}
		}
	}

	relDir := filepath.Join(dir, "releases")
	entries, err := os.ReadDir(relDir)
	if os.IsNotExist(err) {
		return loaded, problems, nil
	}
	if err != nil {
		return loaded, problems, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(relDir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			skip("release "+e.Name(), err)
			continue
		}
		var sr SignedRelease
		if err := json.Unmarshal(data, &sr); err != nil {
			skip("release "+e.Name(), err)
			continue
		}
		// The filename is the claimed content address; a file whose
		// content hashes differently was renamed or edited.
		want := strings.TrimSuffix(e.Name(), ".json")
		if got := sr.Digest().String(); got != want {
			skip("release "+e.Name(), fmt.Errorf("content digest %s does not match filename", got))
			continue
		}
		if _, err := reg.Submit(&sr); err != nil {
			skip("release "+e.Name(), err)
			continue
		}
		loaded++
	}
	return loaded, problems, nil
}

func validName(name string) error {
	if name == "" {
		return fmt.Errorf("market: empty name")
	}
	for _, r := range name {
		if !(r == '-' || r == '_' || r == '.' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
			return fmt.Errorf("market: name %q contains %q; use [A-Za-z0-9._-]", name, r)
		}
	}
	if strings.HasPrefix(name, ".") {
		return fmt.Errorf("market: name %q may not start with a dot", name)
	}
	return nil
}
