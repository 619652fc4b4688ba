package pgas

import (
	"math/rand"
	"time"
)

// Clock is one rank's time and randomness: the origin Now counts from, the
// rank's speed factor, and its seeded random stream. It is not a transport
// service — a kernel only says where its time comes from, once, and hands
// the clock out by Kernel.Clock — so Front implements Compute, Charge, Now
// and Rand over it once for every transport. Every layer of one rank's
// handle returns the same *Clock.
//
// A clock is virtual when it reads a virtual-time word the kernel advances
// (dsim): time then passes only through Charge, Compute and the kernel's
// operations, and a waiter charges its back-off instead of spending
// wall-clock time. Otherwise Now is wall-clock time since the origin,
// Compute spins, and Charge is empty, because the real bookkeeping it
// models already took real time.
type Clock struct {
	start time.Time      // wall-clock origin of Now
	virt  *time.Duration // the rank's virtual time; nil on a wall clock
	speed float64        // cost multiplier of Compute and Charge
	step  time.Duration  // a virtual clock's cost of one local ordered operation
	seed  int64
	rng   *rand.Rand // seeded by the first Rand
}

// NewClock returns rank's clock in a world seeded with seed. Now counts from
// start or, when virt is non-nil, reads *virt, which Compute and Charge then
// advance. speed, when non-nil, gives the rank's cost multiplier (1.0 =
// nominal; larger = slower CPU).
func NewClock(start time.Time, virt *time.Duration, seed int64, rank int, speed func(rank int) float64) Clock {
	c := Clock{start: start, virt: virt, speed: 1.0, seed: seed*7919 + int64(rank) + 1}
	if speed != nil {
		c.speed = speed(rank)
	}
	return c
}

// SetStep sets what one ordered operation on the rank's own memory costs a
// virtual clock, unscaled by the speed factor — dsim's LocalOpCost. Front
// charges it for a collective of one member (barrier.go), which sends
// nothing.
func (c *Clock) SetStep(d time.Duration) { c.step = d }

// Virtual reports whether the clock is virtual.
func (c *Clock) Virtual() bool { return c.virt != nil }

// Start is the wall-clock origin of a wall clock's Now.
func (c *Clock) Start() time.Time { return c.start }

// Compute, Charge, Now and Rand are Proc's clock methods (see Proc), for
// every transport. Their arithmetic is the one a virtual-time result rests
// on: a cost is scaled as time.Duration(float64(d) * speed).

func (f *Front) Compute(d time.Duration) {
	c := f.clk
	d = time.Duration(float64(d) * c.speed)
	if c.virt != nil {
		*c.virt += d
		return
	}
	Spin(d)
}

func (f *Front) Charge(d time.Duration) {
	if c := f.clk; c.virt != nil {
		*c.virt += time.Duration(float64(d) * c.speed)
	}
}

func (f *Front) Now() time.Duration {
	c := f.clk
	if c.virt != nil {
		return *c.virt
	}
	return time.Since(c.start)
}

// Rand seeds the rank's source on first use: a source is a 607-word
// seeding, and most ranks of a short run never draw.
func (f *Front) Rand() *rand.Rand {
	c := f.clk
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.seed))
	}
	return c.rng
}
