package channel

import "fmt"

// Deadline-bounded ARQ. The paper's protocol retransmits forever ("the
// signals are re-transmitted in the next time slots"), which is the right
// model for training but not for the latency-critical *deployment* phase
// the paper motivates (proactive 5G operations): there, a payload that
// misses its deadline is useless. TransmitWithDeadline bounds the
// retransmissions and reports outage: with per-slot success probability
// p (SuccessProbability), a payload misses an n-slot deadline with
// probability (1−p)^n.

// Outcome describes one deadline-bounded delivery attempt.
type Outcome struct {
	Delivered bool
	Slots     int     // slots consumed (= maxSlots on outage)
	DelaySecs float64 // slots × τ
}

// TransmitWithDeadline attempts delivery within at most maxSlots slots.
// Unlike Transmit it never blocks forever: undeliverable payloads simply
// time out. Usage counters advance by the slots actually consumed.
func (c *Channel) TransmitWithDeadline(bits, maxSlots int) (Outcome, error) {
	if bits < 0 {
		return Outcome{}, fmt.Errorf("channel: negative payload size %d", bits)
	}
	if maxSlots <= 0 {
		return Outcome{}, fmt.Errorf("channel: non-positive slot budget %d", maxSlots)
	}
	threshold := c.decodeThreshold(bits)
	out := Outcome{}
	for s := 1; s <= maxSlots; s++ {
		out.Slots = s
		if c.meanSNR*c.sampleFading() > threshold {
			out.Delivered = true
			break
		}
	}
	out.DelaySecs = float64(out.Slots) * c.SlotSeconds
	c.slotsUsed += int64(out.Slots)
	if out.Delivered {
		c.payloadsSent++
		c.totalBitsSent += int64(bits)
	}
	return out, nil
}
