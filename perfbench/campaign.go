package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"darkdns/internal/analysis"
	"darkdns/internal/core"
	"darkdns/internal/measure"
	"darkdns/internal/stream"
	"darkdns/internal/worldsim"
)

// campaignSpec is one campaign workload: a world and watch policy.
type campaignSpec struct {
	name string
	cfg  func(seed int64) analysis.RunConfig
}

// fullWatch is the paper-accurate fleet: every candidate watched for
// 48 h with mail probes on, so reads through the probe path
// (measure → worldsim probe backend → registry) dominate.
var fullWatch = campaignSpec{
	name: "full-watch",
	cfg: func(seed int64) analysis.RunConfig {
		return analysis.RunConfig{Seed: seed, Scale: 0.002, Weeks: 4, WatchSampleRate: 1.0, ProbeMail: true}
	},
}

// zoneChurn is ten times the world with 2 % of candidates watched, so
// zone writes (registry snapshots, CZDS/DZDB ingest) dominate and probing
// is minor.
var zoneChurn = campaignSpec{
	name: "zone-churn",
	cfg: func(seed int64) analysis.RunConfig {
		return analysis.RunConfig{Seed: seed, Scale: 0.02, Weeks: 4, WatchSampleRate: 0.02, ProbeMail: true}
	},
}

// maxWatchProbes is the most probes one watch can take: one per
// 10-minute round over the 48-hour window, plus the admission probe.
const maxWatchProbes = int(48*time.Hour/(10*time.Minute)) + 1

// truth is the ground truth the campaign checks read: every registration
// the world generated, with its lifetime, and every ghost issuance.
type truth struct {
	lifetime map[string]time.Duration // 0 = survives the window
	ghost    map[string]bool
}

// buildTruth builds the campaign's world independently of the campaign
// and keeps only what the checks need.
func buildTruth(cfg analysis.RunConfig) *truth {
	wcfg := worldsim.DefaultConfig(cfg.Seed, cfg.Scale)
	wcfg.Weeks = cfg.Weeks
	w := worldsim.New(wcfg)
	defer w.Stop()
	t := &truth{lifetime: make(map[string]time.Duration, w.Domains.Len()), ghost: make(map[string]bool, len(w.Ghosts))}
	w.Domains.Range(func(d *worldsim.Domain) { t.lifetime[d.Name] = d.Lifetime })
	for _, g := range w.Ghosts {
		t.ghost[g.Name] = true
	}
	return t
}

// shortLived reports whether domain is a registration deleted within
// 24 h of creation.
func (t *truth) shortLived(domain string) bool {
	l, ok := t.lifetime[domain]
	return ok && l > 0 && l < 24*time.Hour
}

// campaignOutput is what the checks read from one campaign.
type campaignOutput struct {
	candidates []core.Candidate
	report     core.TransientReport
	watches    []measure.DomainState
	probes     int64
}

func outputOf(r *analysis.Results) campaignOutput {
	return campaignOutput{
		candidates: r.Pipeline.Candidates(),
		report:     r.Report,
		watches:    r.Fleet.States(),
		probes:     r.Fleet.Report().Probes,
	}
}

// checkCampaign returns every violated ground-truth property of one
// campaign's outputs.
func checkCampaign(t *truth, out campaignOutput) []string {
	var bad []string
	add := func(format string, args ...any) {
		if len(bad) < 10 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	if len(out.candidates) == 0 || len(out.report.LowerBound) == 0 || out.probes == 0 {
		add("empty output: %d candidates, %d in the lower bound, %d probes",
			len(out.candidates), len(out.report.LowerBound), out.probes)
	}
	for _, c := range out.candidates {
		if _, reg := t.lifetime[c.Domain]; !reg && !t.ghost[c.Domain] {
			add("candidate %s is neither a registration nor a ghost", c.Domain)
		}
	}
	for _, c := range out.report.LowerBound {
		if !t.ghost[c.Domain] && !t.shortLived(c.Domain) {
			add("lower-bound transient %s is neither a ghost nor a registration that lived < 24h", c.Domain)
		}
	}
	for _, c := range out.report.Confirmed {
		if !t.shortLived(c.Domain) {
			add("confirmed transient %s is not a registration that lived < 24h", c.Domain)
		}
	}
	var sum int64
	for _, st := range out.watches {
		sum += int64(st.Probes)
		if !st.Finished || st.Probes > maxWatchProbes {
			add("watch of %s: finished=%v after %d probes (at most %d fit in 48h)", st.Domain, st.Finished, st.Probes, maxWatchProbes)
		}
	}
	if sum != out.probes {
		add("watches account for %d probes, the fleet reports %d", sum, out.probes)
	}
	return bad
}

// runCampaign runs one untraced campaign through the program's entry
// points and renders its report.
func runCampaign(cfg analysis.RunConfig) (*analysis.Results, []byte, *opCost, error) {
	c := startOp()
	r := analysis.Run(cfg)
	var buf bytes.Buffer
	err := analysis.WriteReport(&buf, r)
	c.end()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("write report: %w", err)
	}
	return r, buf.Bytes(), c, nil
}

// nrdFeed copies the campaign's published NRD feed.
func nrdFeed(bus *stream.Bus) []stream.Message {
	t := bus.Topic(core.DefaultConfig(time.Time{}, time.Time{}).FeedTopic)
	return append([]stream.Message(nil), t.Read(0, t.Len())...)
}

// runCampaignWorkload runs campaigns until the measured region is over,
// checks each, then serves the last campaign's NRD feed to subscribers.
// Traced runs alternate untraced and traced campaigns of the same seed.
func runCampaignWorkload(spec campaignSpec, o runOpts) (*result, error) {
	cfg := spec.cfg(o.seed)
	var setups []float64
	var t *truth
	for i := 0; i < 5; i++ {
		runtime.GC()
		start := time.Now()
		t = buildTruth(cfg)
		setups = append(setups, seconds(time.Since(start)))
	}

	var tl tally
	var ops []*opCost
	var traced []*campaignTrace
	var overhead []float64
	var nrd []stream.Message
	var rounds []float64
	start := time.Now()
	for more(start, o.seconds-campaignFeedSeconds, rounds) {
		roundStart := time.Now()
		r, report, c, err := runCampaign(cfg)
		if err != nil {
			return nil, err
		}
		tl.op(spec.name+" campaign", checkCampaign(t, outputOf(r)))
		ops = append(ops, c)
		nrd = nrdFeed(r.Bus)
		if !o.trace {
			rounds = append(rounds, seconds(time.Since(roundStart)))
			continue
		}
		ct, tr, err := runTracedCampaign(cfg)
		if err != nil {
			return nil, err
		}
		var bad []string
		if !bytes.Equal(ct.report, report) {
			bad = append(bad, "traced report differs from the analysis.Run report")
		}
		bad = append(bad, checkCampaign(t, outputOf(tr))...)
		bad = append(bad, ct.observationCheck()...)
		tl.op(spec.name+" traced campaign", bad)
		traced = append(traced, ct)
		overhead = append(overhead, seconds(ct.cost.wall-c.wall))
		rounds = append(rounds, seconds(time.Since(roundStart)))
	}
	// Return the campaigns' heap to the OS first, so the feed sessions
	// start from the same memory state whatever the campaigns left.
	debug.FreeOSMemory()
	sessions, err := feedSessions(nrd, start.Add(o.seconds), &tl)
	if err != nil {
		return nil, err
	}

	res := &result{Attempted: tl.attempted, Failed: tl.failed, Correct: tl.failed == 0}
	if !o.trace {
		setCommon(res, ops, setups)
		setFeedEndToEnd(res, sessions)
		return res, nil
	}
	setCampaignLayers(res, traced, overhead)
	setFeedLayers(res, sessions)
	return res, nil
}
