// Package metrics implements the evaluation measures of the paper's §IV-A:
// detection precision/recall against the ground-truth faulty matrix, and
// the reconstruction Mean Absolute Error of Eq. (29) over the cells that
// were missing or detected as faulty.
//
// Every derived measure is a total function: a zero denominator resolves
// to its vacuous value — precision and recall 1 (no chance to be wrong,
// none missed), false-positive rate 0 (no clean cell to misflag), MAE 0
// (no qualifying cell) — never NaN. Streaming consumers aggregate these
// rates across many windows, including degenerate ones (all-missing masks,
// fault-free windows), so they must be safe to average without filtering
// non-finite values.
package metrics

import (
	"fmt"
	"math"

	"itscs/internal/mat"
)

// Confusion counts detection outcomes against ground truth.
type Confusion struct {
	TP int // flagged and truly faulty
	FP int // flagged but clean
	FN int // missed faulty
	TN int // correctly left alone
}

// Compare tallies detection d against ground truth f, ignoring cells that
// were never observed (e == 0): an unobserved cell carries no data to judge.
// Pass e == nil to evaluate every cell.
func Compare(d, f, e *mat.Dense) (Confusion, error) {
	n, t := d.Dims()
	if fr, fc := f.Dims(); fr != n || fc != t {
		return Confusion{}, fmt.Errorf("metrics: truth is %dx%d, want %dx%d", fr, fc, n, t)
	}
	if e != nil {
		if er, ec := e.Dims(); er != n || ec != t {
			return Confusion{}, fmt.Errorf("metrics: existence is %dx%d, want %dx%d", er, ec, n, t)
		}
	}
	var c Confusion
	for i := 0; i < n; i++ {
		dRow := d.RowView(i)
		fRow := f.RowView(i)
		for j := 0; j < t; j++ {
			if e != nil && e.At(i, j) == 0 {
				continue
			}
			flagged := dRow[j] != 0
			faulty := fRow[j] != 0
			switch {
			case flagged && faulty:
				c.TP++
			case flagged && !faulty:
				c.FP++
			case !flagged && faulty:
				c.FN++
			default:
				c.TN++
			}
		}
	}
	return c, nil
}

// Precision returns TP / (TP + FP); 1 when nothing was flagged (no false
// alarms were raised).
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP / (TP + FN); 1 when there was nothing to find.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// FalsePositiveRate returns FP / (FP + TN); 0 when no clean cells exist.
func (c Confusion) FalsePositiveRate() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// MAE computes the reconstruction Mean Absolute Error of Eq. (29): the mean
// Euclidean distance between truth and reconstruction over the cells that
// were missing (e == 0) or detected faulty (d == 1). It returns 0 when no
// cell qualifies.
func MAE(x, y, xHat, yHat, e, d *mat.Dense) (float64, error) {
	n, t := x.Dims()
	for _, m := range []struct {
		name string
		m    *mat.Dense
	}{{"Y", y}, {"X̂", xHat}, {"Ŷ", yHat}, {"E", e}, {"D", d}} {
		if mr, mc := m.m.Dims(); mr != n || mc != t {
			return 0, fmt.Errorf("metrics: %s is %dx%d, want %dx%d", m.name, mr, mc, n, t)
		}
	}
	var sum float64
	var cnt int
	for i := 0; i < n; i++ {
		for j := 0; j < t; j++ {
			if e.At(i, j) != 0 && d.At(i, j) == 0 {
				continue
			}
			ex := x.At(i, j) - xHat.At(i, j)
			ey := y.At(i, j) - yHat.At(i, j)
			sum += math.Hypot(ex, ey)
			cnt++
		}
	}
	if cnt == 0 {
		return 0, nil
	}
	return sum / float64(cnt), nil
}
