package channel

import (
	"fmt"
	"math"
)

// Deadline-bounded ARQ. The paper's protocol retransmits forever ("the
// signals are re-transmitted in the next time slots"), which is the right
// model for training but not for the latency-critical *deployment* phase
// the paper motivates (proactive 5G operations): there, a payload that
// misses its deadline is useless. TransmitWithDeadline bounds the
// retransmissions and reports outage, and the analytic helpers quantify
// the resulting reliability/latency trade-off.

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

// OutageProbability returns the probability that a payload misses a
// maxSlots-slot deadline: (1−p)^maxSlots with per-slot success p.
func (c *Channel) OutageProbability(bits, maxSlots int) float64 {
	if maxSlots <= 0 {
		return 1
	}
	p := c.SuccessProbability(bits)
	return math.Pow(1-p, float64(maxSlots))
}

// SlotsForReliability returns the smallest slot budget that keeps the
// outage probability at or below target, or (0, false) when no finite
// budget achieves it (p = 0) or the requirement is trivial (p = 1 → 1).
func (c *Channel) SlotsForReliability(bits int, target float64) (int, bool) {
	if target <= 0 || target >= 1 {
		return 0, false
	}
	p := c.SuccessProbability(bits)
	if p <= 0 {
		return 0, false
	}
	if p >= 1 {
		return 1, true
	}
	// (1−p)^n ≤ target ⇒ n ≥ ln(target)/ln(1−p).
	n := int(math.Ceil(math.Log(target) / math.Log(1-p)))
	if n < 1 {
		n = 1
	}
	return n, true
}
