package main

import "time"

// fakeClock is the tests' clock: every reading moves it on by step, and
// Sleep by exactly what was asked, so anything computed from it is the
// same on every run.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func newFakeClock(step time.Duration) *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0), step: step}
}

func (c *fakeClock) Now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }
