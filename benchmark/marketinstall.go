package main

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"time"

	"sdnshield/internal/controller"
	"sdnshield/internal/core"
	"sdnshield/internal/isolation"
	"sdnshield/internal/market"
	"sdnshield/internal/of"
	"sdnshield/internal/permengine"
	"sdnshield/internal/permlang"
	"sdnshield/internal/tenant"
)

// market_install: administrator admission (§V). A seeded corpus of 1000
// distinct signed releases is admitted by one client: Registry.Submit →
// Market.Install (→ Approve when repaired) → permissions live in the
// shield. A round is one pass over the corpus, count-bounded, on a fresh
// shield, and every release meets a fresh registry and market — the site
// policy can bound one app name only, so each market is one site admitting
// its release of that app — so every verdict is a cache miss. The markets
// share the round's shield through tenant.ScopedRuntime, as hosted
// markets do.

type marketScenario struct {
	size     int // releases in the corpus
	tr       *tracer
	corpus   []corpusRelease
	boundary *core.Set
	pub      ed25519.PublicKey
	policy   string
	samples  []int64
	rounds   uint32
	log      failureLog
}

func (s *marketScenario) setup(seed int64, tr *tracer) error {
	s.tr = tr
	s.corpus = genCorpus(seed, s.size)
	s.boundary = permlang.MustParse(boundaryManifest()).Set()
	s.pub, _ = vendorKey(seed)
	s.policy = sitePolicy()
	s.samples = make([]int64, 0, s.size)
	// The rounds build their markets themselves; a policy that does not
	// parse should fail the set-up, not every round.
	m, err := market.New(market.NewRegistry(), nil, market.Config{PolicySrc: s.policy})
	if err != nil {
		return err
	}
	m.Close()
	return nil
}

// site is one release's fresh registry and market.
type site struct {
	reg *market.Registry
	mkt *market.Market
}

func siteName(i int) string { return fmt.Sprintf("s%04d", i) }

// buildSites makes the round's shield and one registry + market per
// release; cache, when non-nil, is shared by all of them (the warm pass of
// the layer probe).
func (s *marketScenario) buildSites(cache *market.VerdictCache) (*controller.Kernel, *isolation.Shield, []site, error) {
	kernel := controller.New(nil, nil)
	shield := isolation.NewShield(kernel, isolation.Config{})
	sites := make([]site, len(s.corpus))
	for i := range sites {
		reg := market.NewRegistry()
		if err := reg.TrustVendor(vendor, s.pub); err != nil {
			return kernel, shield, sites, err
		}
		mkt, err := market.New(reg, tenant.ScopedRuntime(shield, siteName(i)),
			market.Config{PolicySrc: s.policy, Cache: cache})
		if err != nil {
			return kernel, shield, sites, err
		}
		sites[i] = site{reg, mkt}
	}
	return kernel, shield, sites, nil
}

func closeSites(kernel *controller.Kernel, shield *isolation.Shield, sites []site) {
	for _, st := range sites {
		if st.mkt != nil {
			st.mkt.Close()
		}
	}
	shield.Stop()
	kernel.Stop()
}

// admitOne runs one release through its site and checks that each step
// ends as the release was built to end.
func (s *marketScenario) admitOne(st site, rel *corpusRelease, op uint32) error {
	tr := s.tr
	t0 := tr.begin()
	d, err := st.reg.Submit(rel.sr)
	tr.end(spanSubmit, armShield, op, t0)
	if rel.class == classTampered {
		if !errors.Is(err, market.ErrBadSignature) {
			return fmt.Errorf("tampered release %s: Submit returned %v, want ErrBadSignature", rel.sr.Version, err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("release %s: Submit: %v", rel.sr.Version, err)
	}

	t0 = tr.begin()
	res, err := st.mkt.Install(d)
	tr.end(spanInstall, armShield, op, t0)
	switch rel.class {
	case classRejected:
		if !errors.Is(err, market.ErrRejected) {
			return fmt.Errorf("release %s: Install returned %v, want ErrRejected", rel.sr.Version, err)
		}
		return nil
	case classApproved:
		if err != nil || res.Verdict != market.VerdictApproved || res.Status != market.StatusActive {
			return fmt.Errorf("release %s: Install: %v %+v, want approved and active", rel.sr.Version, err, res)
		}
		return nil
	}
	if err != nil || res.Verdict != market.VerdictRepaired || res.Status != market.StatusPending {
		return fmt.Errorf("release %s: Install: %v %+v, want repaired and pending", rel.sr.Version, err, res)
	}
	t0 = tr.begin()
	res, err = st.mkt.Approve(appName)
	tr.end(spanApprove, armShield, op, t0)
	if err != nil || res.Status != market.StatusActive {
		return fmt.Errorf("release %s: Approve: %v %+v, want active", rel.sr.Version, err, res)
	}
	return nil
}

// probeDsts are the destinations the enforced set of every admitted
// release is probed with: one in each range a manifest may ask for, the
// range outside the boundary, and one nothing admits.
var probeDsts = func() []*of.Match {
	var out []*of.Match
	for s := 1; s <= allowedSubnets; s++ {
		out = append(out, ipMatch(of.IPv4FromOctets(10, byte(s), 0, 1)))
	}
	out = append(out, ipMatch(of.IPv4FromOctets(10, outsideSubnet, 0, 1)))
	return append(out, ipMatch(of.IPv4FromOctets(172, 16, 0, 1)))
}()

// checkEnforced holds what the shield enforces for one release against
// the oracle: nothing for a refused or rejected release; otherwise the
// manifest's tokens, each allowing exactly what both the manifest and the
// boundary allow (the repaired set is their intersection).
func (s *marketScenario) checkEnforced(engine *permengine.Engine, i int) error {
	rel := &s.corpus[i]
	enforced, ok := engine.Permissions(siteName(i) + "/" + appName)
	if rel.class == classTampered || rel.class == classRejected {
		if ok {
			return fmt.Errorf("%s release %s reached the shield", rel.class, rel.sr.Version)
		}
		return nil
	}
	if !ok {
		return fmt.Errorf("%s release %s: the shield enforces nothing", rel.class, rel.sr.Version)
	}
	if enforced.Len() != rel.requested.Len() {
		return fmt.Errorf("release %s: %d tokens enforced, manifest has %d", rel.sr.Version, enforced.Len(), rel.requested.Len())
	}
	for _, m := range probeDsts {
		call := oracleCall(1, true, m)
		want := rel.requested.Allows(call) && s.boundary.Allows(call)
		if got := enforced.Allows(call); got != want {
			return fmt.Errorf("%s release %s: enforced set allows=%v for %s, oracle says %v",
				rel.class, rel.sr.Version, got, m, want)
		}
	}
	return nil
}

func (s *marketScenario) round(int, time.Duration) (map[string]opStat, uint64, int64) {
	kernel, shield, sites, err := s.buildSites(nil)
	defer closeSites(kernel, shield, sites)
	if err != nil {
		s.log.addf("build sites: %v", err)
		return map[string]opStat{"admit": {Ops: 1, Failed: 1}}, 0, 0
	}
	s.rounds++
	s.samples = s.samples[:0]
	var failed int64

	m0 := mallocCount()
	start := time.Now()
	for i := range s.corpus {
		op := s.rounds<<16 | uint32(i)
		t0 := time.Now()
		err := s.admitOne(sites[i], &s.corpus[i], op)
		lat := time.Since(t0)
		s.tr.addTimed(spanAdmit, armShield, op, t0, lat)
		if err != nil {
			failed++
			s.log.addf("%v", err)
			continue
		}
		s.samples = append(s.samples, int64(lat))
	}
	wall := time.Since(start)
	mallocs := mallocCount() - m0

	for i := range s.corpus {
		if err := s.checkEnforced(shield.Engine(), i); err != nil {
			failed++
			s.log.addf("%v", err)
		}
	}
	st := latencyStat(s.samples, wall, failed)
	return map[string]opStat{"admit": st}, mallocs, st.Ops
}

func (s *marketScenario) verify() []string   { return nil }
func (s *marketScenario) failures() []string { return s.log.msgs }

func (s *marketScenario) inputs() map[string]any {
	counts := map[string]int{}
	for i := range s.corpus {
		counts[s.corpus[i].class.String()]++
	}
	return map[string]any{
		"corpus_size":       len(s.corpus),
		"corpus_hash":       fmt.Sprintf("%016x", hashCorpus(s.corpus)),
		"corpus_classes":    counts,
		"round":             "one pass over the corpus (count-bounded), fresh shield, fresh registry + market per release",
		"driver_goroutines": 1,
	}
}

func (s *marketScenario) spanTree() map[spanName]spanName {
	return map[spanName]spanName{spanSubmit: spanAdmit, spanInstall: spanAdmit, spanApprove: spanAdmit}
}

func (s *marketScenario) close() {}
