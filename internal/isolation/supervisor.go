package isolation

import (
	"errors"
	"fmt"
	"time"

	"sdnshield/internal/controller"
	"sdnshield/internal/obs/audit"
	"sdnshield/internal/obs/recorder"
)

// auditApp records a container lifecycle transition in the forensic
// journal. Lifecycle events have no originating mediated call, so they
// carry no correlation ID.
func auditApp(app string, v audit.Verdict, detail string) {
	if !audit.On() {
		return
	}
	audit.Emit(audit.Event{Kind: audit.KindApp, Verdict: v, App: app, Detail: detail})
}

// Health is a container's lifecycle state as seen by the supervisor.
type Health int32

// Container health states.
const (
	// Running: the app initialized and its handlers receive events.
	Running Health = iota
	// Restarting: the app panicked and the supervisor is re-initializing
	// it after a backoff. Events arriving meanwhile are discarded.
	Restarting
	// Quarantined: the app exceeded PanicLimit panics within PanicWindow
	// and has been permanently unhooked. Its mediated API handle is dead
	// (ErrAppQuarantined) and queued events drain without delivery; the
	// rest of the shield keeps serving healthy apps.
	Quarantined
	// Stopped: the container was shut down.
	Stopped
)

// String names the health state.
func (h Health) String() string {
	switch h {
	case Running:
		return "running"
	case Restarting:
		return "restarting"
	case Quarantined:
		return "quarantined"
	case Stopped:
		return "stopped"
	default:
		return "health(?)"
	}
}

// ErrAppQuarantined reports mediated API use by a quarantined app.
var ErrAppQuarantined = errors.New("isolation: app quarantined")

// Health returns the container's current lifecycle state.
func (c *Container) Health() Health { return Health(c.health.Load()) }

// Restarts reports how many times the supervisor re-initialized the app.
func (c *Container) Restarts() uint64 { return c.restarts.Load() }

// AppHealth reports a launched app's lifecycle state.
func (s *Shield) AppHealth(name string) (Health, bool) {
	c, ok := s.Container(name)
	if !ok {
		return Stopped, false
	}
	return c.Health(), true
}

// onPanic is called by an event worker whose delivery panicked. Exactly
// one worker wins the Running→Restarting transition and supervises; the
// rest resume draining (and discarding, while not Running) the queue.
func (c *Container) onPanic() {
	if !c.health.CompareAndSwap(int32(Running), int32(Restarting)) {
		return
	}
	c.supervise()
}

// supervise runs the restart loop: record the strike, quarantine past
// the panic budget, otherwise unhook everything, back off and re-run the
// app's Init so it can rebuild its subscriptions from scratch.
func (c *Container) supervise() {
	cfg := &c.shield.cfg
	for {
		if strikes := c.recordStrike(); strikes >= cfg.PanicLimit {
			c.quarantine(fmt.Sprintf("%d panics within %v (limit %d)",
				strikes, cfg.PanicWindow, cfg.PanicLimit))
			return
		}
		c.unhookAll()
		select {
		case <-time.After(c.restartBackoff()):
		case <-c.stop:
			c.health.Store(int32(Stopped))
			return
		}
		c.restarts.Add(1)
		c.metrics.restarts.Inc()
		auditApp(c.name, audit.VerdictRestart,
			fmt.Sprintf("restart %d after backoff", c.restarts.Load()))
		err := c.safeInit(c.app, c.api)
		select {
		case <-c.stop:
			c.health.Store(int32(Stopped))
			return
		default:
		}
		if err == nil {
			c.resetStreak()
			c.health.Store(int32(Running))
			return
		}
		// Re-init failed (or panicked again): that is another strike.
	}
}

// recordStrike appends a panic to the sliding window and returns the
// strikes the window now holds.
func (c *Container) recordStrike() int {
	cfg := &c.shield.cfg
	c.supMu.Lock()
	defer c.supMu.Unlock()
	now := time.Now()
	cutoff := now.Add(-cfg.PanicWindow)
	keep := c.panicTimes[:0]
	for _, t := range c.panicTimes {
		if t.After(cutoff) {
			keep = append(keep, t)
		}
	}
	c.panicTimes = append(keep, now)
	c.streak++
	return len(c.panicTimes)
}

func (c *Container) resetStreak() {
	c.supMu.Lock()
	c.streak = 0
	c.supMu.Unlock()
}

// quarantine takes the app out of service for good: it records why,
// marks the container Quarantined, counts and audits the transition,
// unhooks every subscription and captures a forensic bundle. Callers
// decide that the app is due; the quota path first claims the transition
// from Running.
func (c *Container) quarantine(reason string) {
	c.supMu.Lock()
	c.quarReason = reason
	c.supMu.Unlock()
	c.health.Store(int32(Quarantined))
	c.metrics.quarantines.Inc()
	auditApp(c.name, audit.VerdictQuarantine, reason)
	c.unhookAll()
	recorder.Capture(recorder.TriggerQuarantine, c.name, 0, reason)
}

// restartBackoff doubles with the current failure streak, capped so the
// shift cannot overflow.
func (c *Container) restartBackoff() time.Duration {
	c.supMu.Lock()
	streak := c.streak
	c.supMu.Unlock()
	shift := streak - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 16 {
		shift = 16
	}
	return c.shield.cfg.RestartBackoff << shift
}

// unhookAll tears down the container's kernel subscriptions and handler
// table. After it returns no new events reach the queue; a subsequent
// re-init rebuilds both via api.Subscribe.
func (c *Container) unhookAll() {
	c.hmu.Lock()
	defer c.hmu.Unlock()
	for kind, id := range c.kernels {
		c.shield.kernel.Unsubscribe(kind, id)
	}
	c.kernels = make(map[controller.EventKind]int)
	c.handlers.Store(&handlerTable{})
}
