package itscs_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"itscs"
)

// resultDigest hashes the float64 bits and verdicts of every row set plus
// the counters, so a test can pin a run's public result exactly.
func resultDigest(iterations int, converged bool, verdicts [][][]bool, values [][][]float64) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(iterations))
	if converged {
		put(1)
	} else {
		put(0)
	}
	for _, rows := range verdicts {
		for _, row := range rows {
			put(uint64(len(row)))
			for _, v := range row {
				if v {
					put(1)
				} else {
					put(0)
				}
			}
		}
	}
	for _, rows := range values {
		for _, row := range rows {
			put(uint64(len(row)))
			for _, v := range row {
				put(math.Float64bits(v))
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestPublicOutputsDigest pins Run's and RunScalar's results bit for bit
// across options and variants. Go may fuse multiply-adds on other
// architectures, so the constants hold on amd64 only.
func TestPublicOutputsDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	_, cor := smallCorrupted(t, 0.2, 0.15)
	values, rates, _ := scalarField(8, 60)
	rates[1][5] = math.NaN() // a missing rate reads as 0

	location := func(opts ...itscs.Option) func() (string, error) {
		return func() (string, error) {
			res, err := itscs.Run(cor.Dataset, opts...)
			if err != nil {
				return "", err
			}
			return resultDigest(res.Iterations, res.Converged,
				[][][]bool{res.Faulty, res.Missing},
				[][][]float64{res.X, res.Y, res.ReconstructedX, res.ReconstructedY}), nil
		}
	}
	scalar := func(rates [][]float64) func() (string, error) {
		return func() (string, error) {
			res, err := itscs.RunScalar(values, rates, scalarOpts()...)
			if err != nil {
				return "", err
			}
			return resultDigest(res.Iterations, res.Converged,
				[][][]bool{res.Faulty, res.Missing},
				[][][]float64{res.Values, res.Reconstructed}), nil
		}
	}

	cases := []struct {
		name string
		run  func() (string, error)
		want string
	}{
		{"run", location(), "6c6caac1c9a057d4b4345cba"},
		{"fixed-check", location(itscs.WithAdaptiveCheck(false)), "cb60c7abd21cacf230540544"},
		{"no-velocity", location(itscs.WithVariant(itscs.VariantNoVelocity)), "958a21248684d4852b254c17"},
		{"plain-cs", location(itscs.WithVariant(itscs.VariantPlainCS)), "dad2d0465f3e2855a710f5d0"},
		{"scalar-rate", scalar(rates), "74eae506c56ede69dfb5aeac"},
		{"scalar-no-rate", scalar(nil), "54f2605a270827c95578310d"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("digest = %s, want %s", got, tc.want)
			}
		})
	}
}
