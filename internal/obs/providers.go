package obs

import "sync"

// Providers is a registry of named live sources that introspection
// endpoints pull at request time: shields' health and usage callbacks,
// their permission engines. The zero value is empty and ready to use.
type Providers[T any] struct {
	mu      sync.Mutex
	entries map[string]*T
}

// Register installs v under name and returns its unregister function.
// Registering an existing name replaces it; an unregister removes only
// the entry its own registration made, so the late unregister of a
// replaced entry leaves its successor in place.
func (p *Providers[T]) Register(name string, v T) (unregister func()) {
	e := &v
	p.mu.Lock()
	if p.entries == nil {
		p.entries = make(map[string]*T)
	}
	p.entries[name] = e
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		if p.entries[name] == e {
			delete(p.entries, name)
		}
		p.mu.Unlock()
	}
}

// Snapshot copies the registry.
func (p *Providers[T]) Snapshot() map[string]T {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]T, len(p.entries))
	for n, e := range p.entries {
		out[n] = *e
	}
	return out
}

// Pull calls every provider of a callback registry, outside the
// registry's lock, and returns their values by name.
func Pull(p *Providers[func() interface{}]) map[string]interface{} {
	fns := p.Snapshot()
	out := make(map[string]interface{}, len(fns))
	for n, fn := range fns {
		out[n] = fn()
	}
	return out
}
