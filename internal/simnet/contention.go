package simnet

import "fmt"

// contention tracks per-link availability when Config.Contention is
// set: each link carries one message at a time, for PerHop each
// (virtual cut-through: a message holds successive links back to
// back).
type contention struct {
	free  map[Link]Time
	delay Time // accumulated waiting beyond uncontended transit
}

// traverse computes the arrival time of a message departing at dep
// along route and updates link reservations.
func (c *contention) traverse(cfg *Config, route []Link, dep Time) Time {
	uncontended := dep + cfg.Latency + cfg.PerHop*Time(len(route))
	at := dep
	for _, link := range route {
		start := at
		if f := c.free[link]; f > start {
			start = f
		}
		end := start + cfg.PerHop
		c.free[link] = end
		at = end
	}
	arr := at + cfg.Latency
	if arr > uncontended {
		c.delay += arr - uncontended
	}
	return arr
}

// validateContention checks the configuration at construction.
func validateContention(cfg Config) error {
	if !cfg.Contention {
		return nil
	}
	if cfg.Topology == nil {
		return fmt.Errorf("simnet: Contention requires a Topology")
	}
	return nil
}
