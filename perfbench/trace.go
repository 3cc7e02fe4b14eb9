package main

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"darkdns/internal/analysis"
	"darkdns/internal/certstream"
	"darkdns/internal/core"
	"darkdns/internal/dnsname"
	"darkdns/internal/measure"
	"darkdns/internal/psl"
	"darkdns/internal/rdap"
	"darkdns/internal/stream"
	"darkdns/internal/worldsim"
	"darkdns/internal/zoneset"
)

// spans aggregates one layer's calls in memory, grouped as a count and
// the summed duration; per-call records are not kept. The layers timed
// this way (ingest, RDAP) are called from the clock's drain goroutine,
// one call at a time, so the sum is also the union of their intervals;
// the mutex keeps the figures right under the non-default engines that
// call them concurrently.
type spans struct {
	mu    sync.Mutex
	count int64
	busy  time.Duration
}

// time runs fn as one span.
func (s *spans) time(fn func()) {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	s.mu.Lock()
	s.count++
	s.busy += d
	s.mu.Unlock()
}

// probeRounds measures the fleet's probe stages without a per-call
// timer: with the default engine settings the drain blocks while a
// round's probes run on the fleet pool, and the round's observations are
// delivered on the drain goroutine only after its last probe returned. A
// stage therefore runs from the round's first backend call to its first
// observation. The first call of a round stamps the wall clock and the
// process CPU clock; every other call pays one atomic load. (A per-call
// timer behind one mutex made the traced full-watch campaign ≈40 %
// slower.)
type probeRounds struct {
	base     time.Time
	openWall atomic.Int64 // ns since base at the open round's first call; 0 = no round open
	openCPU  atomic.Int64 // process CPU ns at that call

	// Written only by the observer, on the drain goroutine.
	busy, cpu    time.Duration
	observations int64
	inZone       int64
}

// call marks a backend call, opening a round if none is open.
func (r *probeRounds) call() {
	if r.openWall.Load() != 0 {
		return
	}
	cpu := processCPU()
	if r.openWall.CompareAndSwap(0, int64(time.Since(r.base))+1) {
		r.openCPU.Store(int64(cpu))
	}
}

// observe counts one delivered observation, closing the open round.
func (r *probeRounds) observe(o measure.Observation) {
	r.observations++
	if o.InZone {
		r.inZone++
	}
	if opened := r.openWall.Load(); opened != 0 {
		r.busy += time.Since(r.base) - time.Duration(opened-1)
		r.cpu += processCPU() - time.Duration(r.openCPU.Load())
		r.openWall.Store(0)
	}
}

// probeShards counts backend probes without one shared counter.
const probeShards = 64

type paddedCount struct {
	n atomic.Int64
	_ [56]byte
}

// tracedBackend counts and stamps every fleet probe call into the world's
// probe backend. It implements the same optional extensions as the
// backend it wraps, so the fleet takes the same code paths as in
// analysis.Run.
type tracedBackend struct {
	inner  measure.Backend
	batch  measure.BatchBackend
	mail   measure.MailBackend
	rounds *probeRounds
	probes [probeShards]paddedCount // AuthoritativeNS calls, one per probe
}

func newTracedBackend(inner measure.Backend, rounds *probeRounds) (*tracedBackend, error) {
	batch, ok := inner.(measure.BatchBackend)
	if !ok {
		return nil, fmt.Errorf("probe backend %T does not implement measure.BatchBackend", inner)
	}
	mail, ok := inner.(measure.MailBackend)
	if !ok {
		return nil, fmt.Errorf("probe backend %T does not implement measure.MailBackend", inner)
	}
	return &tracedBackend{inner: inner, batch: batch, mail: mail, rounds: rounds}, nil
}

// probeCount sums the probe shards.
func (b *tracedBackend) probeCount() int64 {
	var n int64
	for i := range b.probes {
		n += b.probes[i].n.Load()
	}
	return n
}

func (b *tracedBackend) AuthoritativeNS(domain string) ([]string, bool) {
	b.rounds.call()
	b.probes[dnsname.Hash64(domain)%probeShards].n.Add(1)
	return b.inner.AuthoritativeNS(domain)
}

func (b *tracedBackend) LookupA(domain string) []netip.Addr {
	b.rounds.call()
	return b.inner.LookupA(domain)
}

func (b *tracedBackend) LookupAAAA(domain string) []netip.Addr {
	b.rounds.call()
	return b.inner.LookupAAAA(domain)
}

func (b *tracedBackend) LookupMX(domain string) []string {
	b.rounds.call()
	return b.mail.LookupMX(domain)
}

func (b *tracedBackend) LookupTXT(domain string) []string {
	b.rounds.call()
	return b.mail.LookupTXT(domain)
}

func (b *tracedBackend) ProbeBatch(domains []string, mail bool) []measure.ProbeResult {
	b.rounds.call()
	if len(domains) > 0 {
		b.probes[dnsname.Hash64(domains[0])%probeShards].n.Add(int64(len(domains)))
	}
	return b.batch.ProbeBatch(domains, mail)
}

// tracedQuerier times the pipeline's RDAP lookups. It implements
// rdap.QuerierAt like core.MuxQuerier, so the pipeline schedules the
// same effect-tagged lookups as in analysis.Run.
type tracedQuerier struct {
	inner  core.MuxQuerier
	calls  spans
	errors atomic.Int64
}

func (q *tracedQuerier) Domain(ctx context.Context, name string) (rec *rdap.Record, err error) {
	q.calls.time(func() { rec, err = q.inner.Domain(ctx, name) })
	if err != nil {
		q.errors.Add(1)
	}
	return rec, err
}

func (q *tracedQuerier) DomainAt(ctx context.Context, name string, now time.Time) (rec *rdap.Record, err error) {
	q.calls.time(func() { rec, err = q.inner.DomainAt(ctx, name, now) })
	if err != nil {
		q.errors.Add(1)
	}
	return rec, err
}

var _ rdap.QuerierAt = (*tracedQuerier)(nil)

// campaignTrace is one traced campaign: its report, its cost, and the
// per-layer figures read at each layer boundary.
type campaignTrace struct {
	report []byte
	cost   *opCost

	build, drain, render time.Duration
	ingest               spans
	probes               probeRounds
	backend              *tracedBackend
	querier              *tracedQuerier
	snapshots            int64
	snapshotDomains      int64
	eventsFired          int64
	domains              int
	candidates           int
	rounds               int64
	fleetProbes          int64
}

// runTracedCampaign assembles the same campaign as analysis.Run with the
// program's default engine settings, timing each call into a layer from
// outside the program.
func runTracedCampaign(cfg analysis.RunConfig) (*campaignTrace, *analysis.Results, error) {
	ct := &campaignTrace{cost: startOp()}
	ct.probes.base = ct.cost.wallStart

	wcfg := worldsim.DefaultConfig(cfg.Seed, cfg.Scale)
	wcfg.Weeks = cfg.Weeks
	t0 := time.Now()
	w := worldsim.New(wcfg)
	ct.build = time.Since(t0)
	ct.domains = w.Domains.Len()
	start, end := w.Window()

	for _, reg := range w.Registries {
		reg.Subscribe(func(snap *zoneset.Snapshot) {
			ct.snapshots++
			ct.snapshotDomains += int64(snap.Len())
		})
	}

	pcfg := core.DefaultConfig(start, end)
	pcfg.WatchSampleRate = cfg.WatchSampleRate
	fleetCfg := measure.DefaultConfig()
	fleetCfg.StopWhenDead = true
	fleetCfg.ProbeMail = cfg.ProbeMail
	backend, err := newTracedBackend(w.ProbeBackend(), &ct.probes)
	if err != nil {
		return nil, nil, err
	}
	ct.backend = backend
	fleet := measure.NewFleet(fleetCfg, w.Clock, backend)
	fleet.OnObservation(ct.probes.observe)
	bus := stream.NewBus()
	ct.querier = &tracedQuerier{inner: core.MuxQuerier{Mux: w.RDAP}}
	p := core.New(pcfg, w.Clock, psl.Default(), w.CZDS, ct.querier, fleet, bus, cfg.Seed+100)
	unsubscribe := w.Hub.Subscribe(func(ev certstream.Event) {
		ct.ingest.time(func() { p.HandleEvent(ev) })
	})

	t0 = time.Now()
	w.Run()
	ct.drain = time.Since(t0)
	unsubscribe()
	p.Stop()

	t0 = time.Now()
	r := &analysis.Results{
		World: w, Pipeline: p, Fleet: fleet, Bus: bus,
		Report:      p.Transients(),
		WindowStart: start, WindowEnd: end,
	}
	var buf bytes.Buffer
	if err := analysis.WriteReport(&buf, r); err != nil {
		return nil, nil, fmt.Errorf("write traced report: %w", err)
	}
	ct.render = time.Since(t0)
	ct.cost.end()

	ct.report = buf.Bytes()
	ct.eventsFired = w.Clock.Stats().Fired
	ct.candidates = p.Len()
	rep := fleet.Report()
	ct.rounds = rep.Rounds
	ct.fleetProbes = rep.Probes
	return ct, r, nil
}

// observationCheck is the check only a traced run can make: the fleet
// delivered one observation per probe it reports and per probe the
// backend answered.
func (ct *campaignTrace) observationCheck() []string {
	if n := ct.backend.probeCount(); ct.probes.observations != ct.fleetProbes || n != ct.fleetProbes {
		return []string{fmt.Sprintf("%d observations and %d backend probes for %d fleet probes",
			ct.probes.observations, n, ct.fleetProbes)}
	}
	return nil
}

// setCampaignLayers sets the campaign layers' per-layer metrics: medians
// over the traced campaigns of the run.
func setCampaignLayers(res *result, cts []*campaignTrace, overhead []float64) {
	set := func(name, unit string, f func(*campaignTrace) float64) {
		res.set(name, medianOf(cts, f), unit)
	}
	set("measure.probes", "count", func(ct *campaignTrace) float64 { return float64(ct.fleetProbes) })
	set("measure.rounds", "count", func(ct *campaignTrace) float64 { return float64(ct.rounds) })
	set("measure.observations", "count", func(ct *campaignTrace) float64 { return float64(ct.probes.observations) })
	set("measure.probe_busy_s", "s", func(ct *campaignTrace) float64 { return seconds(ct.probes.busy) })
	set("measure.probe_cpu_s", "s", func(ct *campaignTrace) float64 { return seconds(ct.probes.cpu) })
	set("measure.inzone_ratio", "ratio", func(ct *campaignTrace) float64 {
		return float64(ct.probes.inZone) / float64(max(ct.probes.observations, 1))
	})
	set("worldsim.build_s", "s", func(ct *campaignTrace) float64 { return seconds(ct.build) })
	set("worldsim.domains", "count", func(ct *campaignTrace) float64 { return float64(ct.domains) })
	set("simclock.drain_s", "s", func(ct *campaignTrace) float64 { return seconds(ct.drain) })
	set("simclock.events_fired", "count", func(ct *campaignTrace) float64 { return float64(ct.eventsFired) })
	set("simclock.drain_self_s", "s", func(ct *campaignTrace) float64 {
		return seconds(ct.drain - ct.ingest.busy - ct.querier.calls.busy - ct.probes.busy)
	})
	set("registry.snapshots", "count", func(ct *campaignTrace) float64 { return float64(ct.snapshots) })
	set("registry.snapshot_domains", "count", func(ct *campaignTrace) float64 { return float64(ct.snapshotDomains) })
	set("core.ingest_s", "s", func(ct *campaignTrace) float64 { return seconds(ct.ingest.busy) })
	set("core.ingest_events", "count", func(ct *campaignTrace) float64 { return float64(ct.ingest.count) })
	set("core.candidates", "count", func(ct *campaignTrace) float64 { return float64(ct.candidates) })
	set("rdap.queries", "count", func(ct *campaignTrace) float64 { return float64(ct.querier.calls.count) })
	set("rdap.query_s", "s", func(ct *campaignTrace) float64 { return seconds(ct.querier.calls.busy) })
	set("rdap.errors", "count", func(ct *campaignTrace) float64 { return float64(ct.querier.errors.Load()) })
	set("analysis.report_s", "s", func(ct *campaignTrace) float64 { return seconds(ct.render) })
	set("analysis.report_bytes", "bytes", func(ct *campaignTrace) float64 { return float64(len(ct.report)) })
	set("runtime.gc_cycles", "count", func(ct *campaignTrace) float64 { return float64(ct.cost.gcCycles) })
	set("runtime.gc_pause_ms", "ms", func(ct *campaignTrace) float64 { return millis(ct.cost.gcPause) })
	res.set("trace.overhead_s", median(overhead), "s")
}
