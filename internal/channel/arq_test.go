package channel

import (
	"math"
	"testing"
)

func TestDeadlineDeliversEasyPayload(t *testing.T) {
	ch := paperUL(31)
	bits := paperPayload(40) // p ≈ 1
	for i := 0; i < 50; i++ {
		out, err := ch.TransmitWithDeadline(bits, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Delivered || out.Slots != 1 {
			t.Fatalf("easy payload: %+v", out)
		}
		if math.Abs(out.DelaySecs-1e-3) > 1e-12 {
			t.Fatalf("delay = %g", out.DelaySecs)
		}
	}
}

func TestDeadlineTimesOutUndeliverable(t *testing.T) {
	ch := paperUL(32)
	bits := paperPayload(1) // p ≈ 0: Transmit would spin forever
	out, err := ch.TransmitWithDeadline(bits, 10)
	if err != nil {
		t.Fatal(err)
	}
	if out.Delivered {
		t.Fatal("undeliverable payload delivered")
	}
	if out.Slots != 10 {
		t.Fatalf("consumed %d slots, want the full budget 10", out.Slots)
	}
}

func TestDeadlineValidation(t *testing.T) {
	ch := paperUL(33)
	if _, err := ch.TransmitWithDeadline(-1, 5); err == nil {
		t.Fatal("negative payload accepted")
	}
	if _, err := ch.TransmitWithDeadline(100, 0); err == nil {
		t.Fatal("zero budget accepted")
	}
}

func TestOutageMatchesMonteCarlo(t *testing.T) {
	ch := paperUL(35)
	bits := paperPayload(4)
	const budget, trials = 20, 4000
	fails := 0
	for i := 0; i < trials; i++ {
		out, err := ch.TransmitWithDeadline(bits, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Delivered {
			fails++
		}
	}
	emp := float64(fails) / trials
	want := math.Pow(1-ch.SuccessProbability(bits), budget)
	if math.Abs(emp-want) > 4*math.Sqrt(want*(1-want)/trials)+0.01 {
		t.Fatalf("empirical outage %g vs analytic %g", emp, want)
	}
}
