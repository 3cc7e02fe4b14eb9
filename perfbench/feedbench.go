package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"darkdns/internal/analysis"
	"darkdns/internal/feed"
	"darkdns/internal/stream"
)

// feedSpec sizes one feed session: a log pre-filled with catchUp entries
// that every subscriber replays from offset 0, while one open-loop
// publisher appends live entries at a fixed rate.
type feedSpec struct {
	catchUp int
	live    int
	rate    float64 // entries/s offered in the live phase
}

// feedSubscribers is how many framed subscribers every session connects.
const feedSubscribers = 2

// campaignFeedSeconds is the part of a campaign workload's measured
// region spent serving the last campaign's NRD feed.
const campaignFeedSeconds = 8 * time.Second

// liveFeed is the feed tier on its own. 2000 entries/s is well below the
// rate at which shedding began on a 2-vCPU machine (see README.md).
var liveFeed = feedSpec{catchUp: 50000, live: 3000, rate: 2000}

// feedSource is the campaign whose published NRD feed the live-feed
// workload serves: the full-watch world with 2 % of candidates watched,
// so it is quick to run during set-up.
func feedSource(seed int64) analysis.RunConfig {
	cfg := fullWatch.cfg(seed)
	cfg.WatchSampleRate = 0.02
	return cfg
}

// feedLog lays src out as a session's log, cycling through it: n records
// in the shape and with the payloads the pipeline published.
func feedLog(src []stream.Message, n int) []stream.Record {
	recs := make([]stream.Record, n)
	for i := range recs {
		m := src[i%len(src)]
		recs[i] = stream.Record{Time: m.Time, Key: m.Key, Value: m.Value}
	}
	return recs
}

// feedSession is one session's measurements.
type feedSession struct {
	wall       time.Duration   // first subscribe → every subscriber holds every entry
	replayEPS  []float64       // catch-up entries/s, per subscriber
	lags       []time.Duration // due → received, every live receipt
	genLateMax time.Duration   // how late the open-loop publisher ran
	publish    time.Duration   // time in Topic.Publish and PublishBatch
	entries    int
	stale      int64 // receipts after which NextOffset() ≤ the received offset
	stats      feed.FanoutStats
	cost       *opCost
}

// receipt is one event as a subscriber received it.
type receipt struct {
	ev    feed.Event
	at    time.Time
	stale bool
}

// servedFeed is a topic pre-filled with a session's catch-up entries and
// served on loopback.
type servedFeed struct {
	recs    []stream.Record
	topic   *stream.Topic
	srv     *feed.Server
	addr    string
	publish time.Duration
}

// serveFeed is a session's set-up: fill the log, then start the server.
func serveFeed(src []stream.Message, spec feedSpec) (*servedFeed, error) {
	if len(src) == 0 {
		return nil, fmt.Errorf("feed source is empty")
	}
	sf := &servedFeed{recs: feedLog(src, spec.catchUp+spec.live)}
	sf.topic = stream.NewBus().Topic("nrd-feed")
	t0 := time.Now()
	sf.topic.PublishBatch(t0, sf.recs[:spec.catchUp])
	sf.publish = time.Since(t0)
	sf.srv = feed.NewServer(sf.topic)
	addr, err := sf.srv.Serve("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve feed: %w", err)
	}
	sf.addr = addr.String()
	return sf, nil
}

// runFeedSession sets up a feed over src and runs one session on it.
func runFeedSession(src []stream.Message, spec feedSpec, tl *tally) (*feedSession, error) {
	sf, err := serveFeed(src, spec)
	if err != nil {
		return nil, err
	}
	return sf.session(spec, tl)
}

// feedSessions serves src in liveFeed sessions until the next one would
// end after deadline. A first session warms the feed path (buffers,
// heap) and is checked but not measured: the first replay of a process
// ran at two thirds of the rate of later ones.
func feedSessions(src []stream.Message, deadline time.Time, tl *tally) ([]*feedSession, error) {
	var sessions []*feedSession
	var rounds []float64
	for {
		t0 := time.Now()
		fs, err := runFeedSession(src, liveFeed, tl)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, seconds(time.Since(t0)))
		if len(rounds) > 1 {
			sessions = append(sessions, fs)
		}
		if len(sessions) > 0 && time.Until(deadline).Seconds() < median(rounds) {
			return sessions, nil
		}
	}
}

// session connects the subscribers from offset 0 and, while they catch
// up, publishes the live entries open-loop; it returns once every
// subscriber has received every entry (or the deadline passed) and the
// server has shut down.
func (sf *servedFeed) session(spec feedSpec, tl *tally) (*feedSession, error) {
	defer sf.srv.Close()
	total := spec.catchUp + spec.live
	liveFor := time.Duration(float64(spec.live) / spec.rate * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), liveFor+30*time.Second)
	defer cancel()

	fs := &feedSession{cost: startOp(), publish: sf.publish}
	start := fs.cost.wallStart
	client := feed.NewClient(sf.addr)
	subs := make([]*feed.Subscription, feedSubscribers)
	for i := range subs {
		sub, err := client.Subscribe(ctx, feed.SubscribeOptions{From: 0})
		if err != nil {
			for _, s := range subs[:i] {
				s.Close()
			}
			return nil, fmt.Errorf("subscribe: %w", err)
		}
		subs[i] = sub
	}
	got := make([][]receipt, len(subs))
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = receive(sub, int64(total-1))
		}()
	}

	interval := time.Duration(float64(time.Second) / spec.rate)
	liveStart := time.Now()
	for j := 0; j < spec.live; j++ {
		due := liveStart.Add(time.Duration(j) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		fs.genLateMax = max(fs.genLateMax, t0.Sub(due))
		r := sf.recs[spec.catchUp+j]
		sf.topic.Publish(r.Time, r.Key, r.Value)
		fs.publish += time.Since(t0)
	}
	wg.Wait()
	fs.cost.end()
	fs.stats = sf.srv.Stats()
	fs.entries = sf.topic.Len()

	// A live entry due while its subscriber is still replaying waits for
	// the replay, which replay_eps measures; lag covers the entries due
	// after the subscriber caught up.
	for i, rs := range got {
		events := make([]feed.Event, len(rs))
		var caughtUp time.Time
		for k, r := range rs {
			events[k] = r.ev
			if r.stale {
				fs.stale++
			}
			if r.ev.Kind != feed.EventEntry {
				continue
			}
			off := int(r.ev.Entry.Offset)
			if off == spec.catchUp-1 {
				caughtUp = r.at
				fs.replayEPS = append(fs.replayEPS, float64(spec.catchUp)/r.at.Sub(start).Seconds())
			}
			if off >= spec.catchUp && off < total && !caughtUp.IsZero() {
				if due := liveStart.Add(time.Duration(off-spec.catchUp) * interval); !due.Before(caughtUp) {
					fs.lags = append(fs.lags, r.at.Sub(due))
				}
			}
			fs.wall = max(fs.wall, r.at.Sub(start))
		}
		failed, bad := checkFeed(sf.recs, events)
		tl.add(fmt.Sprintf("feed subscriber %d", i), int64(total), failed, bad)
	}
	return fs, nil
}

// receive collects a subscriber's events until the entry at offset last
// arrives or the subscription ends, then closes it and keeps whatever
// else was still delivered.
func receive(sub *feed.Subscription, last int64) []receipt {
	var rs []receipt
	for ev := range sub.C {
		r := receipt{ev: ev, at: time.Now()}
		if ev.Kind == feed.EventEntry {
			r.stale = sub.NextOffset() <= ev.Entry.Offset
		}
		rs = append(rs, r)
		if ev.Kind == feed.EventEntry && ev.Entry.Offset == last {
			break
		}
	}
	sub.Close()
	for ev := range sub.C {
		rs = append(rs, receipt{ev: ev, at: time.Now()})
	}
	return rs
}

// checkFeed checks one subscriber's events against the log it should
// have received: every offset exactly once, in order, with no gap, and
// with the generator's payload byte for byte. It returns how many
// offsets (plus stray events) fail that, and descriptions of the first
// few failures.
func checkFeed(want []stream.Record, got []feed.Event) (int64, []string) {
	var bad []string
	var failed int64
	add := func(format string, args ...any) {
		if len(bad) < 5 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	ok := make([]bool, len(want))
	seen := make([]int, len(want))
	next := int64(0)
	for _, ev := range got {
		if ev.Kind != feed.EventEntry {
			failed++
			add("unexpected event kind %d (gap %+v)", ev.Kind, ev.Gap)
			continue
		}
		e := ev.Entry
		if e.Offset < 0 || e.Offset >= int64(len(want)) {
			failed++
			add("offset %d is outside the log of %d entries", e.Offset, len(want))
			continue
		}
		seen[e.Offset]++
		w := want[e.Offset]
		switch {
		case e.Offset != next:
			add("offset %d arrived when %d was due", e.Offset, next)
		case e.Raw != string(w.Value) || e.Domain != w.Key || !e.Time.Equal(w.Time):
			add("offset %d differs from the published entry", e.Offset)
		default:
			ok[e.Offset] = true
		}
		next = e.Offset + 1
	}
	for off := range want {
		if !ok[off] || seen[off] != 1 {
			failed++
			if seen[off] == 0 {
				add("offset %d never arrived", off)
			} else if seen[off] > 1 {
				add("offset %d arrived %d times", off, seen[off])
			}
		}
	}
	return failed, bad
}

// runLiveFeed runs feed sessions, each on a freshly served log, until the
// measured region is over. Set-up runs the source campaign whose NRD feed
// the session serves; traced runs also trace that campaign.
func runLiveFeed(o runOpts) (*result, error) {
	var tl tally
	var setups []float64
	var sessions []*feedSession
	var traced []*campaignTrace
	var overhead []float64
	cfg := feedSource(o.seed)
	var rounds []float64
	for start, warm := time.Now(), false; more(start, o.seconds, rounds); {
		t0 := time.Now()
		r, report, c, err := runCampaign(cfg)
		if err != nil {
			return nil, err
		}
		sf, err := serveFeed(nrdFeed(r.Bus), liveFeed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, seconds(time.Since(t0)))
		if o.trace {
			ct, _, err := runTracedCampaign(cfg)
			if err != nil {
				sf.srv.Close()
				return nil, err
			}
			bad := ct.observationCheck()
			if !bytes.Equal(ct.report, report) {
				bad = append(bad, "traced report differs from the analysis.Run report")
			}
			tl.op("live-feed traced source campaign", bad)
			traced = append(traced, ct)
			overhead = append(overhead, seconds(ct.cost.wall-c.wall))
		}
		fs, err := sf.session(liveFeed, &tl)
		if err != nil {
			return nil, err
		}
		if !warm {
			// Like feedSessions, the first round warms the feed path
			// and is not measured.
			warm = true
			continue
		}
		sessions = append(sessions, fs)
		rounds = append(rounds, seconds(time.Since(t0)))
	}

	res := &result{Attempted: tl.attempted, Failed: tl.failed, Correct: tl.failed == 0}
	if !o.trace {
		ops := make([]*opCost, len(sessions))
		for i, fs := range sessions {
			ops[i] = fs.cost
		}
		setCommon(res, ops, setups)
		setFeedEndToEnd(res, sessions)
		return res, nil
	}
	setCampaignLayers(res, traced, overhead)
	setFeedLayers(res, sessions)
	return res, nil
}

// pooledLags sorts every live receipt's lag across sessions.
func pooledLags(sessions []*feedSession) []time.Duration {
	var lags []time.Duration
	for _, fs := range sessions {
		lags = append(lags, fs.lags...)
	}
	sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
	return lags
}

// setFeedEndToEnd sets the feed's end-to-end metrics.
func setFeedEndToEnd(res *result, sessions []*feedSession) {
	var eps []float64
	for _, fs := range sessions {
		eps = append(eps, fs.replayEPS...)
	}
	res.set("replay_eps", median(eps), "1/s")
	lags := pooledLags(sessions)
	res.set("feed_lag_p50_ms", millis(percentile(lags, 0.50)), "ms")
}

// setFeedLayers sets the stream and feed layers' per-layer metrics:
// medians over sessions, tail lag over the pooled receipts.
func setFeedLayers(res *result, sessions []*feedSession) {
	med := func(f func(*feedSession) float64) float64 { return medianOf(sessions, f) }
	res.set("stream.publish_s", med(func(fs *feedSession) float64 { return seconds(fs.publish) }), "s")
	res.set("stream.entries", med(func(fs *feedSession) float64 { return float64(fs.entries) }), "count")
	res.set("feed.delivered", med(func(fs *feedSession) float64 { return float64(fs.stats.Delivered) }), "count")
	res.set("feed.batches", med(func(fs *feedSession) float64 { return float64(fs.stats.Batches) }), "count")
	res.set("feed.entries_per_batch", med(func(fs *feedSession) float64 {
		return float64(fs.stats.Delivered) / float64(max(fs.stats.Batches, 1))
	}), "count")
	res.set("feed.bytes_out", med(func(fs *feedSession) float64 { return float64(fs.stats.BytesOut) }), "bytes")
	res.set("feed.encode_cache_hits", med(func(fs *feedSession) float64 { return float64(fs.stats.EncodeCacheHits) }), "count")
	res.set("feed.max_depth", med(func(fs *feedSession) float64 { return float64(fs.stats.MaxDepth) }), "count")
	res.set("feed.shed", med(func(fs *feedSession) float64 { return float64(fs.stats.Shed) }), "count")
	res.set("feed.gaps", med(func(fs *feedSession) float64 { return float64(fs.stats.Gaps) }), "count")
	lags := pooledLags(sessions)
	res.set("feed.lag_p90_ms", millis(percentile(lags, 0.90)), "ms")
	res.set("feed.lag_p99_ms", millis(percentile(lags, 0.99)), "ms")
	res.set("feed.gen_late_max_ms", med(func(fs *feedSession) float64 { return millis(fs.genLateMax) }), "ms")
	var stale int64
	for _, fs := range sessions {
		stale += fs.stale
	}
	res.set("feed.stale_next_offset", float64(stale), "count")
}
