package simnet

import "fmt"

// Topology models the interconnection network's routing. A message's
// transit time is Config.Latency + Config.PerHop * the length of its
// route — with wormhole routing (the technology the paper credits for
// making MPCs viable for production systems) the per-hop term is small
// and nearly distance-insensitive; with the first generation's
// store-and-forward routing it dominates. Routing is deterministic
// (dimension-ordered / fixed-direction), as in the wormhole routers the
// paper cites, and the same route is what Config.Contention reserves
// link by link.
type Topology interface {
	// Route appends to buf[:0] the directed links from one processor
	// to another, in traversal order, and returns them: empty for
	// self-sends, and as many as the network distance.
	Route(from, to int, buf []Link) []Link
	// Name labels the topology in reports.
	Name() string
}

// Link is one directed channel of the interconnection network.
type Link struct {
	From, To int
}

// Crossbar is a full crossbar (or an idealized single-hop network such
// as Nectar's HUB): every pair is one hop apart.
type Crossbar struct{}

// Route is one hop for distinct processors: contention occurs only at
// the destination port.
func (Crossbar) Route(from, to int, buf []Link) []Link {
	if from == to {
		return buf[:0]
	}
	return append(buf[:0], Link{From: -1, To: to})
}

// Name implements Topology.
func (Crossbar) Name() string { return "crossbar" }

// Mesh2D is a W x H grid with dimension-ordered routing; processor i
// sits at (i mod W, i div W).
type Mesh2D struct {
	W, H int
}

// Route implements dimension-ordered (X then Y) routing, a route as
// long as the Manhattan distance.
func (m Mesh2D) Route(from, to int, buf []Link) []Link {
	links := buf[:0]
	cur := from
	step := func(next int) {
		links = append(links, Link{From: cur, To: next})
		cur = next
	}
	fx, fy := from%m.W, from/m.W
	tx, ty := to%m.W, to/m.W
	for x := fx; x != tx; {
		if tx > x {
			x++
		} else {
			x--
		}
		step(fy*m.W + x)
	}
	for y := fy; y != ty; {
		if ty > y {
			y++
		} else {
			y--
		}
		step(y*m.W + tx)
	}
	return links
}

// Name implements Topology.
func (m Mesh2D) Name() string { return fmt.Sprintf("mesh%dx%d", m.W, m.H) }

// Hypercube connects processors whose ids differ in one bit, as on the
// Cosmic Cube.
type Hypercube struct{}

// Route implements e-cube routing, correcting the lowest differing bit
// first: a route as long as the Hamming distance of the ids.
func (Hypercube) Route(from, to int, buf []Link) []Link {
	links := buf[:0]
	for cur := from; cur != to; {
		diff := cur ^ to
		next := cur ^ (diff & -diff)
		links = append(links, Link{From: cur, To: next})
		cur = next
	}
	return links
}

// Name implements Topology.
func (Hypercube) Name() string { return "hypercube" }

// Ring is a bidirectional ring of N processors.
type Ring struct {
	N int
}

// Route implements shortest-direction routing, a route as long as the
// shorter circular distance.
func (r Ring) Route(from, to int, buf []Link) []Link {
	links := buf[:0]
	if from == to {
		return links
	}
	d := to - from
	if d < 0 {
		d += r.N
	}
	dir := 1 // forward
	if d > r.N-d {
		dir = r.N - 1 // i.e. step -1 mod N
	}
	for cur := from; cur != to; {
		next := (cur + dir) % r.N
		links = append(links, Link{From: cur, To: next})
		cur = next
	}
	return links
}

// Name implements Topology.
func (r Ring) Name() string { return fmt.Sprintf("ring%d", r.N) }

// transit computes a message's network time under the configuration,
// routing it through the simulator's scratch.
func (s *Sim) transit(from, to int) Time {
	t := s.cfg.Latency
	if s.cfg.Topology != nil {
		s.route = s.cfg.Topology.Route(from, to, s.route)
		t += s.cfg.PerHop * Time(len(s.route))
	}
	return t
}
