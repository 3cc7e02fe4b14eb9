package main

import (
	"fmt"
	"testing"
	"time"

	"darkdns/internal/core"
	"darkdns/internal/feed"
	"darkdns/internal/measure"
	"darkdns/internal/stream"
)

// validCampaign is a small campaign output that satisfies every check
// against its truth.
func validCampaign() (*truth, campaignOutput) {
	t := &truth{
		lifetime: map[string]time.Duration{
			"brief.com":    2 * time.Hour,
			"lasting.com":  0,
			"threeday.com": 72 * time.Hour,
		},
		ghost: map[string]bool{"ghost.com": true},
	}
	cand := func(d string) core.Candidate { return core.Candidate{Domain: d} }
	out := campaignOutput{
		candidates: []core.Candidate{cand("brief.com"), cand("ghost.com"), cand("lasting.com"), cand("threeday.com")},
		report: core.TransientReport{
			LowerBound: []core.Candidate{cand("brief.com"), cand("ghost.com")},
			Confirmed:  []core.Candidate{cand("brief.com")},
		},
		watches: []measure.DomainState{
			{Domain: "brief.com", Probes: 3, Finished: true},
			{Domain: "lasting.com", Probes: maxWatchProbes, Finished: true},
		},
		probes: int64(3 + maxWatchProbes),
	}
	return t, out
}

func TestCampaignChecksPassValidOutput(t *testing.T) {
	tr, out := validCampaign()
	if bad := checkCampaign(tr, out); len(bad) != 0 {
		t.Fatalf("valid campaign flagged: %v", bad)
	}
}

func TestCampaignChecksCatchFaults(t *testing.T) {
	faults := map[string]func(*campaignOutput){
		"candidate absent from ground truth": func(o *campaignOutput) {
			o.candidates = append(o.candidates, core.Candidate{Domain: "invented.com"})
		},
		"3-day-lived registration in the lower bound": func(o *campaignOutput) {
			o.report.LowerBound = append(o.report.LowerBound, core.Candidate{Domain: "threeday.com"})
		},
		"ghost confirmed as transient": func(o *campaignOutput) {
			o.report.Confirmed = append(o.report.Confirmed, core.Candidate{Domain: "ghost.com"})
		},
		"watch with more probes than fit in 48h": func(o *campaignOutput) {
			o.watches[1].Probes++
			o.probes++
		},
		"unfinished watch": func(o *campaignOutput) {
			o.watches[0].Finished = false
		},
		"probes unaccounted for": func(o *campaignOutput) {
			o.probes++
		},
		"empty lower bound": func(o *campaignOutput) {
			o.report = core.TransientReport{}
		},
	}
	for name, breakIt := range faults {
		t.Run(name, func(t *testing.T) {
			tr, out := validCampaign()
			breakIt(&out)
			if bad := checkCampaign(tr, out); len(bad) == 0 {
				t.Fatal("fault not caught")
			}
		})
	}
}

// validFeed is a log and the events a subscriber should receive for it.
func validFeed() ([]stream.Record, []feed.Event) {
	base := time.Date(2023, 11, 1, 0, 0, 0, 0, time.UTC)
	var want []stream.Record
	var got []feed.Event
	for i := 0; i < 5; i++ {
		d := fmt.Sprintf("d%d.com", i)
		r := stream.Record{
			Time:  base.Add(time.Duration(i) * time.Minute),
			Key:   d,
			Value: []byte(fmt.Sprintf(`{"domain":%q,"seen":"2023-11-01T00:0%d:00Z","log":"argon-sim"}`, d, i)),
		}
		want = append(want, r)
		got = append(got, feed.Event{Kind: feed.EventEntry, Entry: feed.Entry{Offset: int64(i), Time: r.Time, Domain: r.Key, Raw: string(r.Value)}})
	}
	return want, got
}

func TestFeedCheckPassesValidDelivery(t *testing.T) {
	want, got := validFeed()
	if failed, bad := checkFeed(want, got); failed != 0 {
		t.Fatalf("valid delivery flagged: %d failed: %v", failed, bad)
	}
}

func TestFeedCheckCatchesFaults(t *testing.T) {
	faults := map[string]func([]feed.Event) []feed.Event{
		"missing entry": func(ev []feed.Event) []feed.Event {
			return append(ev[:2:2], ev[3:]...)
		},
		"duplicated entry": func(ev []feed.Event) []feed.Event {
			return append(ev[:3:3], ev[2:]...)
		},
		"reordered entries": func(ev []feed.Event) []feed.Event {
			ev[1], ev[2] = ev[2], ev[1]
			return ev
		},
		"payload changed by one byte": func(ev []feed.Event) []feed.Event {
			raw := []byte(ev[3].Entry.Raw)
			raw[len(raw)-3] ^= 1
			ev[3].Entry.Raw = string(raw)
			return ev
		},
		"gap frame": func(ev []feed.Event) []feed.Event {
			return append(ev, feed.Event{Kind: feed.EventGap, Gap: feed.Gap{From: 5, To: 6, Dropped: 2}})
		},
		"entry past the log": func(ev []feed.Event) []feed.Event {
			return append(ev, feed.Event{Kind: feed.EventEntry, Entry: feed.Entry{Offset: 5}})
		},
	}
	for name, breakIt := range faults {
		t.Run(name, func(t *testing.T) {
			want, got := validFeed()
			if failed, _ := checkFeed(want, breakIt(got)); failed == 0 {
				t.Fatal("fault not caught")
			}
		})
	}
}

// TestFeedSessionDeliversEverything runs a small session end to end over
// loopback: every subscriber must pass the feed checks.
func TestFeedSessionDeliversEverything(t *testing.T) {
	want, _ := validFeed()
	src := make([]stream.Message, len(want))
	for i, r := range want {
		src[i] = stream.Message{Offset: int64(i), Time: r.Time, Key: r.Key, Value: r.Value}
	}
	var tl tally
	fs, err := runFeedSession(src, feedSpec{catchUp: 200, live: 100, rate: 2000}, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 || tl.attempted != feedSubscribers*300 {
		t.Fatalf("attempted %d, failed %d", tl.attempted, tl.failed)
	}
	if len(fs.replayEPS) != feedSubscribers {
		t.Fatalf("replay rates %v, want one per subscriber", fs.replayEPS)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}
