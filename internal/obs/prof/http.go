// The profiler surface mounts onto every obs introspection endpoint via
// the extension-route registry:
//
//	/prof                     — capture index (enabled:false when no
//	                            profiler runs); ?capture=1 takes one now
//	/prof/<id>                — one capture's metadata
//	/prof/<id>/<file>.pprof   — download a profile file
package prof

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"sdnshield/internal/obs"
)

func init() {
	obs.RegisterHandler("/prof", http.HandlerFunc(handleIndex))
	obs.RegisterHandler("/prof/", http.HandlerFunc(handleCapture))
}

type indexView struct {
	Enabled  bool      `json:"enabled"`
	Dir      string    `json:"dir,omitempty"`
	Skipped  uint64    `json:"skipped,omitempty"`
	Errors   uint64    `json:"errors,omitempty"`
	Captures []Capture `json:"captures"`
}

func handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/prof" {
		http.NotFound(w, r)
		return
	}
	p := Default()
	if p == nil {
		obs.WriteJSON(w, indexView{Enabled: false, Captures: []Capture{}})
		return
	}
	if r.URL.Query().Get("capture") == "1" {
		if c, err := p.CaptureNow("manual"); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		} else {
			obs.WriteJSON(w, c)
			return
		}
	}
	obs.WriteJSON(w, indexView{
		Enabled:  true,
		Dir:      p.Dir(),
		Skipped:  p.Skipped(),
		Errors:   p.Errors(),
		Captures: p.Recent(),
	})
}

func handleCapture(w http.ResponseWriter, r *http.Request) {
	p := Default()
	if p == nil {
		http.Error(w, "no profiler running", http.StatusNotFound)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/prof/")
	parts := strings.SplitN(rest, "/", 2)
	c, ok := p.Lookup(parts[0])
	if !ok {
		http.Error(w, "unknown capture", http.StatusNotFound)
		return
	}
	if len(parts) == 1 {
		obs.WriteJSON(w, c)
		return
	}
	file := parts[1]
	if _, known := c.Files[file]; !known || strings.Contains(file, "/") || strings.Contains(file, "..") {
		http.Error(w, "unknown profile file", http.StatusNotFound)
		return
	}
	path := filepath.Join(p.Dir(), c.ID, file)
	f, err := os.Open(path)
	if err != nil {
		http.Error(w, "profile file gone", http.StatusNotFound)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, file, c.Time, f)
}
