package kernel

import "math"

// --- Width-1 tiles of the built-in kernels: the last stage of every
// cascade, and the per-target reference the wider tiles are tested
// against. Each body repeats its kernel's Eval expression verbatim
// (loop-invariant parameter products hoisted), so every target's sum is
// bit-identical to the scalar Eval chain while the loop itself is free of
// dynamic dispatch. They loop over any number of targets.

// tile1 is Coulomb's width-1 tile.
//
//hot:path
func (Coulomb) tile1(tx, ty, tz, sx, sy, sz, q, phi []float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	for t := range phi {
		x, y, z := tx[t], ty[t], tz[t]
		var p float64
		for j := range q {
			dx, dy, dz := x-sx[j], y-sy[j], z-sz[j]
			r2 := dx*dx + dy*dy + dz*dz
			g := 0.0
			if r2 != 0 {
				g = 1 / math.Sqrt(r2)
			}
			p += g * q[j]
		}
		phi[t] += p
	}
}

// tile1 is Yukawa's width-1 tile.
//
//hot:path
func (k Yukawa) tile1(tx, ty, tz, sx, sy, sz, q, phi []float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	kappa := k.Kappa
	for t := range phi {
		x, y, z := tx[t], ty[t], tz[t]
		var p float64
		for j := range q {
			dx, dy, dz := x-sx[j], y-sy[j], z-sz[j]
			r2 := dx*dx + dy*dy + dz*dz
			g := 0.0
			if r2 != 0 {
				r := math.Sqrt(r2)
				g = math.Exp(-kappa*r) / r
			}
			p += g * q[j]
		}
		phi[t] += p
	}
}

// tile1 is Gaussian's width-1 tile.
//
//hot:path
func (g Gaussian) tile1(tx, ty, tz, sx, sy, sz, q, phi []float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	s2 := g.Sigma * g.Sigma
	for t := range phi {
		x, y, z := tx[t], ty[t], tz[t]
		var p float64
		for j := range q {
			dx, dy, dz := x-sx[j], y-sy[j], z-sz[j]
			r2 := dx*dx + dy*dy + dz*dz
			p += math.Exp(-r2/s2) * q[j]
		}
		phi[t] += p
	}
}

// tile1 is Multiquadric's width-1 tile.
//
//hot:path
func (m Multiquadric) tile1(tx, ty, tz, sx, sy, sz, q, phi []float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	c2 := m.C * m.C
	for t := range phi {
		x, y, z := tx[t], ty[t], tz[t]
		var p float64
		for j := range q {
			dx, dy, dz := x-sx[j], y-sy[j], z-sz[j]
			p += math.Sqrt(dx*dx+dy*dy+dz*dz+c2) * q[j]
		}
		phi[t] += p
	}
}

// tile1 is RegularizedCoulomb's width-1 tile.
//
//hot:path
func (r RegularizedCoulomb) tile1(tx, ty, tz, sx, sy, sz, q, phi []float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	e2 := r.Eps * r.Eps
	for t := range phi {
		x, y, z := tx[t], ty[t], tz[t]
		var p float64
		for j := range q {
			dx, dy, dz := x-sx[j], y-sy[j], z-sz[j]
			p += softInvSqrt(dx*dx+dy*dy+dz*dz+e2) * q[j]
		}
		phi[t] += p
	}
}

// gradTile1 is RegularizedCoulomb's width-1 gradient tile: EvalGrad's
// arithmetic inline, four chains per target from +0 in source order.
//
//hot:path
func (r RegularizedCoulomb) gradTile1(tx, ty, tz, sx, sy, sz, q, phi, gx, gy, gz []float64) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	e2 := r.Eps * r.Eps
	for t := range phi {
		x, y, z := tx[t], ty[t], tz[t]
		var p, px, py, pz float64
		for j := range q {
			dx, dy, dz := x-sx[j], y-sy[j], z-sz[j]
			d2 := dx*dx + dy*dy + dz*dz + e2
			var g, ex, ey, ez float64
			if d2 != 0 {
				// The square root of a copy that dies here: SQRTSD writes
				// only the low half of its destination, and the copy keeps
				// the compiler from handing it a register the previous
				// source's accumulate chain still owns. d2 is never -0, so
				// d2+0 == d2.
				g = 1 / math.Sqrt(d2+0)
				c := -g / d2
				ex, ey, ez = c*dx, c*dy, c*dz
			}
			qj := q[j]
			p += g * qj
			px += ex * qj
			py += ey * qj
			pz += ez * qj
		}
		phi[t] += p
		gx[t] += px
		gy[t] += py
		gz[t] += pz
	}
}

// --- Width-1 fp32 tiles of the built-in F32 kernels.

// f32Tile1 is Coulomb's width-1 fp32 tile.
//
//hot:path
func (Coulomb) f32Tile1(tx, ty, tz []float32, sx, sy, sz, q []float64, phi []float32) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	for t := range phi {
		x, y, z := tx[t], ty[t], tz[t]
		var p float32
		for j := range q {
			dx, dy, dz := x-float32(sx[j]), y-float32(sy[j]), z-float32(sz[j])
			r2 := dx*dx + dy*dy + dz*dz
			var g float32
			if r2 != 0 {
				g = 1 / float32(math.Sqrt(float64(r2)))
			}
			p += g * float32(q[j])
		}
		phi[t] += p
	}
}

// f32Tile1 is Yukawa's width-1 fp32 tile.
//
//hot:path
func (k Yukawa) f32Tile1(tx, ty, tz []float32, sx, sy, sz, q []float64, phi []float32) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	kappa := float32(k.Kappa)
	for t := range phi {
		x, y, z := tx[t], ty[t], tz[t]
		var p float32
		for j := range q {
			dx, dy, dz := x-float32(sx[j]), y-float32(sy[j]), z-float32(sz[j])
			r2 := dx*dx + dy*dy + dz*dz
			var g float32
			if r2 != 0 {
				r := float32(math.Sqrt(float64(r2)))
				g = float32(math.Exp(float64(-kappa*r))) / r
			}
			p += g * float32(q[j])
		}
		phi[t] += p
	}
}

// f32Tile1 is Gaussian's width-1 fp32 tile.
//
//hot:path
func (g Gaussian) f32Tile1(tx, ty, tz []float32, sx, sy, sz, q []float64, phi []float32) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	s := float32(g.Sigma)
	s2 := s * s
	for t := range phi {
		x, y, z := tx[t], ty[t], tz[t]
		var p float32
		for j := range q {
			dx, dy, dz := x-float32(sx[j]), y-float32(sy[j]), z-float32(sz[j])
			r2 := dx*dx + dy*dy + dz*dz
			p += float32(math.Exp(float64(-r2/s2))) * float32(q[j])
		}
		phi[t] += p
	}
}

// f32Tile1 is RegularizedCoulomb's width-1 fp32 tile.
//
//hot:path
func (r RegularizedCoulomb) f32Tile1(tx, ty, tz []float32, sx, sy, sz, q []float64, phi []float32) {
	// Hoist the slice bounds: one check here instead of three per source.
	sx, sy, sz = sx[:len(q)], sy[:len(q)], sz[:len(q)]
	e := float32(r.Eps)
	e2 := e * e
	for t := range phi {
		x, y, z := tx[t], ty[t], tz[t]
		var p float32
		for j := range q {
			dx, dy, dz := x-float32(sx[j]), y-float32(sy[j]), z-float32(sz[j])
			p += softInvSqrtF32(dx*dx+dy*dy+dz*dz+e2) * float32(q[j])
		}
		phi[t] += p
	}
}
