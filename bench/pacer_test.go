package main

import (
	"sort"
	"testing"
	"time"
)

func TestPacerFollowsScheduleAndNeverReleasesEarly(t *testing.T) {
	start := time.Now().Add(3 * time.Millisecond)
	p := newPacer(start, 4000) // 250µs apart
	for want := int64(0); want < 40; want++ {
		i, due, now := p.wait()
		if i != want {
			t.Fatalf("event %d released as %d", want, i)
		}
		if wantDue := start.Add(time.Duration(want) * 250 * time.Microsecond); !due.Equal(wantDue) {
			t.Fatalf("event %d due %v, want %v", i, due.Sub(start), wantDue.Sub(start))
		}
		if now.Before(due) {
			t.Fatalf("event %d released %v before its due time", i, due.Sub(now))
		}
	}
}

func TestPacerReleasesOverdueEventsWithoutSkipping(t *testing.T) {
	p := newPacer(time.Now(), 10000) // 100µs apart
	time.Sleep(5 * time.Millisecond) // a stall: ~50 events are now overdue
	for want := int64(0); want < 20; want++ {
		i, due, now := p.wait()
		if i != want {
			t.Fatalf("overdue event %d released as %d: the schedule skipped", want, i)
		}
		if now.Sub(due) < time.Millisecond {
			t.Fatalf("event %d released only %v after its due time; lateness must carry the stall", i, now.Sub(due))
		}
	}
	if p.spin != 0 {
		t.Fatalf("pacer spun %v although every event was overdue", p.spin)
	}
}

// TestPacerBeatsTimerGranularity pins why the pacer spins: a sleep-only
// pacer releases a 200µs-spaced event about a millisecond late, which would
// dwarf a ~50µs request. The bound is loose so a busy machine does not fail
// it; a sleep-only pacer fails it everywhere the timer is coarse.
func TestPacerBeatsTimerGranularity(t *testing.T) {
	p := newPacer(time.Now().Add(time.Millisecond), 5000)
	late := make([]time.Duration, 0, 200)
	for range 200 {
		_, due, now := p.wait()
		late = append(late, now.Sub(due))
	}
	sort.Slice(late, func(a, b int) bool { return late[a] < late[b] })
	if med := late[len(late)/2]; med > 400*time.Microsecond {
		t.Fatalf("median release lateness %v, want well under the timer granularity", med)
	}
	if p.spin == 0 {
		t.Fatal("pacer never spun at 200µs spacing")
	}
}
