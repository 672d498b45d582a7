package recorder

import (
	"net/http"
	"reflect"
	"strconv"
	"strings"

	"sdnshield/internal/obs"
)

// HTTP surface, mounted on every obs introspection endpoint:
//
//	/apps         — per-app resource usage from every registered
//	                provider (live, one JSON object per shield),
//	                filterable by ?tenant= in multi-tenant processes
//	/debug/bundle — retained diagnostic bundles: list, fetch by ?id=,
//	                capture on demand with ?capture=1 (optionally
//	                ?app=, ?corr=, ?detail=)

func serveApps(w http.ResponseWriter, r *http.Request) {
	snaps := usageSnapshots()
	if tenant := r.URL.Query().Get("tenant"); tenant != "" {
		snaps = filterUsageByTenant(snaps, tenant)
	}
	obs.WriteJSON(w, snaps)
}

// Apps returns the /apps handler for embedding in tenant-scoped muxes.
func Apps() http.Handler { return http.HandlerFunc(serveApps) }

// filterUsageByTenant keeps only the apps living in one tenant's
// namespace. Providers hand back opaque values (each shield registers
// its own snapshot type), but per-app ones are maps keyed by app name,
// and multi-tenant managers namespace those names "tenant/app" — so the
// filter walks string-keyed maps reflectively and keeps the prefixed
// entries. Providers with no matching apps are omitted entirely.
func filterUsageByTenant(snaps map[string]interface{}, tenant string) map[string]interface{} {
	prefix := tenant + "/"
	out := make(map[string]interface{}, len(snaps))
	for name, v := range snaps {
		rv := reflect.ValueOf(v)
		if !rv.IsValid() || rv.Kind() != reflect.Map || rv.Type().Key().Kind() != reflect.String {
			continue
		}
		kept := reflect.MakeMap(rv.Type())
		for _, k := range rv.MapKeys() {
			if strings.HasPrefix(k.String(), prefix) {
				kept.SetMapIndex(k, rv.MapIndex(k))
			}
		}
		if kept.Len() > 0 {
			out[name] = kept.Interface()
		}
	}
	return out
}

func serveBundle(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("capture") != "" || r.Method == http.MethodPost {
		var corr uint64
		if c := q.Get("corr"); c != "" {
			v, err := strconv.ParseUint(c, 10, 64)
			if err != nil {
				http.Error(w, "bad corr: "+err.Error(), http.StatusBadRequest)
				return
			}
			corr = v
		}
		bundle := defBundler.Capture(TriggerManual, q.Get("app"), corr, q.Get("detail"))
		obs.WriteJSON(w, bundle)
		return
	}
	if id := q.Get("id"); id != "" {
		bundle := defBundler.Get(id)
		if bundle == nil {
			http.Error(w, "no such bundle (evicted or never captured)", http.StatusNotFound)
			return
		}
		obs.WriteJSON(w, bundle)
		return
	}
	obs.WriteJSON(w, struct {
		Bundles     []BundleInfo `json:"bundles"`
		WriteErrors uint64       `json:"write_errors,omitempty"`
	}{defBundler.Recent(), defBundler.WriteErrors()})
}

func init() {
	obs.RegisterHandler("/apps", http.HandlerFunc(serveApps))
	obs.RegisterHandler("/debug/bundle", http.HandlerFunc(serveBundle))
}
