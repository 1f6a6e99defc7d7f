package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"itscs/internal/csrecon"
	"itscs/internal/mat"
)

// digest accumulates the float64 bits of matrices and the values of
// counters into one SHA-256, so a test can pin a run's outputs exactly.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		d.h.Write(b[:])
	}
}

func (d *digest) bool(v bool) {
	if v {
		d.ints(1)
	} else {
		d.ints(0)
	}
}

func (d *digest) mats(ms ...*mat.Dense) {
	var b [8]byte
	for _, m := range ms {
		if m == nil {
			d.ints(-1)
			continue
		}
		d.ints(m.Dims())
		for _, v := range m.RawData() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			d.h.Write(b[:])
		}
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)[:12]) }

func digestOutput(d *digest, out *Output) {
	d.mats(out.Detection, out.XHat, out.YHat)
	d.ints(out.Iterations, out.Sweeps)
	d.bool(out.Converged)
	d.bool(out.WarmStarted)
	d.ints(out.RowFlips...)
	if out.Warm != nil {
		d.mats(out.Warm.X.L, out.Warm.X.R, out.Warm.Y.L, out.Warm.Y.R)
	}
	for _, s := range out.History {
		d.mats(s.Detection, s.XHat, s.YHat)
		d.ints(s.FlagCount, s.ChangedFlags)
	}
}

// columns cuts slots [c0, c1) out of every matrix of in.
func columns(t *testing.T, in Input, c0, c1 int) Input {
	t.Helper()
	cut := func(m *mat.Dense) *mat.Dense {
		s, err := m.Slice(0, m.Rows(), c0, c1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return Input{SX: cut(in.SX), SY: cut(in.SY), Existence: cut(in.Existence), VX: cut(in.VX), VY: cut(in.VY)}
}

// TestLoopOutputsDigest pins every output of the DETECT→CORRECT→CHECK
// loop bit for bit: detection, reconstructions, warm factors, history,
// and the iteration, sweep and row-flip counts, for both the location and
// the scalar entry points. A refactor of the loop must leave every digest
// unchanged. Go may fuse multiply-adds on other architectures, so the
// constants hold on amd64 only.
func TestLoopOutputsDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	fleet, res := fixture(t, 16, 90, 0.2, 0.15)
	full := inputFrom(fleet, res)
	in := columns(t, full, 0, 60)

	location := func(edit func(*Config)) func(*digest) error {
		return func(d *digest) error {
			cfg := DefaultConfig()
			edit(&cfg)
			out, err := Run(cfg, in)
			if err != nil {
				return err
			}
			digestOutput(d, out)
			return nil
		}
	}
	_, s, e, _ := scalarFixture(t, 12, 60, 0.15, 0.15)
	rate := mat.New(12, 60)
	for i := 0; i < 12; i++ {
		for j := 1; j < 60; j++ {
			rate.Set(i, j, (s.At(i, j)-s.At(i, j-1))/30)
		}
	}
	scalar := func(rate *mat.Dense) func(*digest) error {
		return func(d *digest) error {
			out, err := RunScalar(scalarConfig(), ScalarInput{S: s, Existence: e, Rate: rate})
			if err != nil {
				return err
			}
			d.mats(out.Detection, out.SHat)
			d.ints(out.Iterations)
			d.bool(out.Converged)
			return nil
		}
	}

	cases := []struct {
		name string
		run  func(*digest) error
		want string
	}{
		{"run", location(func(*Config) {}), "bd6756904f7ca0c69f9c6627"},
		{"history", location(func(c *Config) { c.KeepHistory = true }), "f9eae8af4517c50f6a0d883b"},
		{"fixed-check", location(func(c *Config) { c.DisableAdaptiveCheck = true }), "ea58bc884274ac41aa971bf8"},
		{"capped", location(func(c *Config) { c.MaxIterations = 2; c.KeepHistory = true }), "50995c2470ba217aecc2705e"},
		{"temporal", location(func(c *Config) { c.Reconstruct.Variant = csrecon.VariantTemporal }), "cf9b053e2678e0be14609bcd"},
		{"basic", location(func(c *Config) { c.Reconstruct.Variant = csrecon.VariantBasic }), "692aae3527d59a05198c571c"},
		{"warm-chain", func(d *digest) error {
			var warm *WarmState
			for _, c0 := range []int{0, 30} {
				out, err := RunWarm(DefaultConfig(), columns(t, full, c0, c0+60), warm)
				if err != nil {
					return err
				}
				digestOutput(d, out)
				warm = out.Warm
			}
			return nil
		}, "cc7cd00db0000ed7e12beb5f"},
		{"scalar-rate", scalar(rate), "0d5a5ee237d817878c339935"},
		{"scalar-no-rate", scalar(nil), "187c19e9e160c04c11ef1fcd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := newDigest()
			if err := tc.run(d); err != nil {
				t.Fatal(err)
			}
			if got := d.sum(); got != tc.want {
				t.Errorf("digest = %s, want %s", got, tc.want)
			}
		})
	}
}
