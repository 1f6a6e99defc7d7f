// Package geo provides the planar coordinate model used by the synthetic
// Shanghai-like trace generator and the evaluation harness.
//
// The paper works with GPS coordinates projected onto a local planar frame
// (errors are reported in meters, and the study region spans 110 × 140 km).
// This package mirrors that: all positions are meters east/north of a region
// origin.
package geo

import (
	"fmt"
	"math"
)

// Point is a planar position in meters within a Region's local frame.
type Point struct {
	X float64 // meters east of the region origin
	Y float64 // meters north of the region origin
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{X: p.X + dx, Y: p.Y + dy} }

// DistanceTo returns the Euclidean distance in meters to q.
func (p Point) DistanceTo(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Vec is a planar velocity in meters/second.
type Vec struct {
	VX float64
	VY float64
}

// Region is a rectangular study area with a geographic anchor.
type Region struct {
	// OriginLat and OriginLon anchor the local frame's (0,0) corner.
	OriginLat float64
	OriginLon float64
	// WidthMeters and HeightMeters give the rectangular extent.
	WidthMeters  float64
	HeightMeters float64
}

// ShanghaiLike returns a region matching the paper's SUVnet study area:
// 110 km × 140 km anchored near Shanghai (31.0°N, 121.0°E).
func ShanghaiLike() Region {
	return Region{
		OriginLat:    31.0,
		OriginLon:    121.0,
		WidthMeters:  110_000,
		HeightMeters: 140_000,
	}
}

// Validate reports configuration errors.
func (r Region) Validate() error {
	if r.WidthMeters <= 0 || r.HeightMeters <= 0 {
		return fmt.Errorf("geo: non-positive region extent %vx%v", r.WidthMeters, r.HeightMeters)
	}
	if r.OriginLat < -90 || r.OriginLat > 90 {
		return fmt.Errorf("geo: origin latitude %v outside [-90,90]", r.OriginLat)
	}
	if r.OriginLon < -180 || r.OriginLon > 180 {
		return fmt.Errorf("geo: origin longitude %v outside [-180,180]", r.OriginLon)
	}
	return nil
}

// KmH converts kilometers/hour to meters/second.
func KmH(kmh float64) float64 { return kmh / 3.6 }
