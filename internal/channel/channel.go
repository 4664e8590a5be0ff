// Package channel implements the paper's slotted block-fading wireless
// channel. In each time slot of length τ the instantaneous SNR is
//
//	SNR_t = P·r^{−α}·h_t / (σ²·W),   h_t ~ Exp(1) i.i.d.
//
// and a payload of B bits is decoded successfully iff
//
//	SNR_t > 2^{B/(τ·W)} − 1
//
// (the Shannon threshold; the paper's "1 − 2^{B/(τW)}" is a typo — with
// that sign every transmission would always succeed, contradicting its own
// Table 1). Failed slots are retransmitted in subsequent slots, so the
// number of slots to deliver a payload is geometric with the analytic
// success probability p = exp(−(2^{B/(τW)}−1)/SNR̄).
package channel

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/radio"
)

// Channel simulates one direction (uplink or downlink) of the link.
type Channel struct {
	Budget      radio.LinkBudget
	SlotSeconds float64

	rng     *rand.Rand
	meanSNR float64
	fadingM float64 // Nakagami shape; 0 or 1 = the paper's Exp(1) fading

	// Counters for diagnostics.
	slotsUsed     int64
	payloadsSent  int64
	totalBitsSent int64
}

// New returns a channel over the given budget with its own RNG stream.
func New(budget radio.LinkBudget, slotSeconds float64, rng *rand.Rand) (*Channel, error) {
	if err := budget.Validate(); err != nil {
		return nil, err
	}
	if slotSeconds <= 0 {
		return nil, fmt.Errorf("channel: non-positive slot length %g", slotSeconds)
	}
	if rng == nil {
		return nil, fmt.Errorf("channel: nil RNG")
	}
	return &Channel{
		Budget:      budget,
		SlotSeconds: slotSeconds,
		rng:         rng,
		meanSNR:     budget.MeanSNR(),
	}, nil
}

// MustNew is New that panics on configuration errors; for tests and
// hard-coded paper configurations.
func MustNew(budget radio.LinkBudget, slotSeconds float64, rng *rand.Rand) *Channel {
	c, err := New(budget, slotSeconds, rng)
	if err != nil {
		panic(err)
	}
	return c
}

// decodeThreshold returns 2^{B/(τW)} − 1, the minimum SNR that decodes a
// B-bit payload in one slot.
func (c *Channel) decodeThreshold(bits int) float64 {
	exp := float64(bits) / (c.SlotSeconds * c.Budget.BandwidthHz)
	return math.Exp2(exp) - 1
}

// SuccessProbability returns the analytic per-slot decode probability for
// a payload of the given size: p = P[h > θ/SNR̄], which is exp(−θ/SNR̄)
// for the paper's Exp(1) fading and Q(m, m·θ/SNR̄) for Nakagami-m.
func (c *Channel) SuccessProbability(bits int) float64 {
	if bits <= 0 {
		return 1
	}
	x := c.decodeThreshold(bits) / c.meanSNR
	if c.FadingM() == 1 {
		return math.Exp(-x)
	}
	return c.fadingCCDF(x)
}

// ExpectedSlots returns the mean number of slots to deliver the payload,
// 1/p, or +Inf when the payload can never be decoded.
func (c *Channel) ExpectedSlots(bits int) float64 {
	p := c.SuccessProbability(bits)
	if p == 0 {
		return math.Inf(1)
	}
	return 1 / p
}

// ExpectedDelay returns τ/p, the mean delivery latency in seconds.
func (c *Channel) ExpectedDelay(bits int) float64 {
	return c.ExpectedSlots(bits) * c.SlotSeconds
}

// ErrUndeliverable is returned by Transmit when the per-slot success
// probability is so small that delivery would not terminate.
var ErrUndeliverable = fmt.Errorf("channel: payload undeliverable (success probability ≈ 0)")

// minSuccessProbability guards Transmit against effectively-infinite
// retransmission loops (e.g. the 1×1-pooling payload whose success
// probability is below 10^-300).
const minSuccessProbability = 1e-9

// Transmit simulates delivery of a payload of the given size and returns
// the number of slots consumed (≥ 1). Each slot draws an independent
// Exp(1) fading realisation; the payload is delivered in the first slot
// whose instantaneous SNR clears the decode threshold.
func (c *Channel) Transmit(bits int) (slots int, err error) {
	if bits < 0 {
		return 0, fmt.Errorf("channel: negative payload size %d", bits)
	}
	p := c.SuccessProbability(bits)
	if p < minSuccessProbability {
		return 0, fmt.Errorf("%w: %d bits over %.0f Hz, p = %.3g",
			ErrUndeliverable, bits, c.Budget.BandwidthHz, p)
	}
	threshold := c.decodeThreshold(bits)
	for {
		slots++
		if c.meanSNR*c.sampleFading() > threshold {
			break
		}
	}
	c.slotsUsed += int64(slots)
	c.payloadsSent++
	c.totalBitsSent += int64(bits)
	return slots, nil
}

// TransmitDelay is Transmit expressed as a latency in seconds.
func (c *Channel) TransmitDelay(bits int) (float64, error) {
	slots, err := c.Transmit(bits)
	if err != nil {
		return 0, err
	}
	return float64(slots) * c.SlotSeconds, nil
}

// Stats reports cumulative usage counters.
type Stats struct {
	SlotsUsed    int64
	PayloadsSent int64
	BitsSent     int64
}

// Stats returns a snapshot of the channel's usage counters.
func (c *Channel) Stats() Stats {
	return Stats{SlotsUsed: c.slotsUsed, PayloadsSent: c.payloadsSent, BitsSent: c.totalBitsSent}
}

// PaperUplinkPayloadBits evaluates the paper's uplink payload formula
// B^UL = N_H·N_W·B·R·L/(w_H·w_W) for image size (nh, nw), mini-batch size
// batch, bit depth r, sequence length l and pooling window (wh, ww).
func PaperUplinkPayloadBits(nh, nw, batch, r, l, wh, ww int) int {
	if wh <= 0 || ww <= 0 {
		panic(fmt.Sprintf("channel: non-positive pooling window %dx%d", wh, ww))
	}
	return nh * nw * batch * r * l / (wh * ww)
}
