package maintain

import (
	"testing"

	"geospanner/internal/geom"
	"geospanner/internal/udg"
)

// maxFuzzEvents bounds one input's event stream, so every execution stays
// a few milliseconds.
const maxFuzzEvents = 64

// FuzzApplyBatch drives a small maintained network with arbitrary event
// batches and checks the state after every batch: Structures derives, the
// invariants hold (distinct alive positions included), and the patched
// structures equal a from-scratch rebuild. The scope cap is 1, so every
// epoch patches. Each 4-byte group is one event: the kind, the node, and a
// destination that is either a point of the region or, with the high bit
// of the third byte set, the current position of the node the fourth byte
// names — so exact co-location is reachable. The high bit of the first
// byte closes the batch after the event.
func FuzzApplyBatch(f *testing.F) {
	const region = 200
	inst, err := udg.ConnectedInstance(31, 40, region, 60, 0)
	if err != nil {
		f.Fatal(err)
	}
	const end = 0x80
	join, leave, crash, move := byte(EventJoin), byte(EventLeave), byte(EventCrash), byte(EventMove)
	// An alive node moved onto an alive node's position.
	f.Add([]byte{move | end, 1, 0x80, 2})
	// A dead node moved onto an alive node's position, then its join; then
	// the occupant leaves and the join is retried.
	f.Add([]byte{crash, 5, 0, 0, move, 5, 0x80, 6, join | end, 5, 0, 0, leave, 6, 0, 0, join | end, 5, 0, 0})
	// Two dead nodes moved to one point of the region, then both joined.
	f.Add([]byte{crash, 7, 0, 0, crash | end, 8, 0, 0, move, 7, 0x40, 0x80, move, 8, 0x40, 0x80, join, 7, 0, 0, join | end, 8, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(append([]geom.Point(nil), inst.Points...), inst.Radius)
		s.PatchScopeFraction = 1
		if _, _, err := s.Structures(); err != nil {
			t.Fatal(err)
		}
		if len(data) > 4*maxFuzzEvents {
			data = data[:4*maxFuzzEvents]
		}
		var batch []Event
		for i := 0; i+4 <= len(data); i += 4 {
			b := data[i : i+4]
			e := Event{Kind: EventKind(int(b[0]&^end) % NumEventKinds), Node: int(b[1]) % s.N()}
			if b[2]&0x80 != 0 {
				e.To = s.pts[int(b[3])%s.N()]
			} else {
				e.To = geom.Pt(float64(b[2])/0x7f*region, float64(b[3])/0xff*region)
			}
			batch = append(batch, e)
			if b[0]&end == 0 && i+8 <= len(data) {
				continue
			}
			s.ApplyBatch(batch, DefaultFallbackFraction)
			batch = batch[:0]
			conn, pldel, err := s.Structures()
			if err != nil {
				t.Fatalf("after event %d: %v", i/4, err)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("after event %d: %v", i/4, err)
			}
			assertMatchesRebuild(t, s, conn, pldel)
		}
	})
}
