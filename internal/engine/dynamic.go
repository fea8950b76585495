package engine

import (
	"fmt"

	"mpcrete/internal/ops5"
	"mpcrete/internal/rete"
)

// This file implements dynamic production management: the OPS5 excise
// action and live production addition. Both operate on a running
// engine with populated token memories, which is why addition compiles
// the new production with private two-input nodes and primes them by
// replaying working memory through them alone (shared nodes' memories
// must not be touched — they are already correct).
//
// Both rewrite the compiled network, so they are only legal on the
// private single-session engines made by New/NewWithNetwork. Sessions
// opened with Compiled.NewSession share their network with sibling
// sessions and refuse with errSharedNetwork.

// errSharedNetwork explains why a multi-tenant session cannot rewrite
// its network.
func errSharedNetwork(op string) error {
	return fmt.Errorf("engine: %s requires a private network (engine.New); this session shares its Compiled network with other sessions", op)
}

// ExciseProduction removes a production from the running system: its
// network nodes are detached (shared prefixes survive) and its
// instantiations leave the conflict set.
func (e *Session) ExciseProduction(name string) error {
	if e.shared {
		return errSharedNetwork("excise")
	}
	if err := e.c.net.Excise(name); err != nil {
		return err
	}
	e.conflict.removeProduction(name)
	prog := e.c.prog
	for i, p := range prog.Productions {
		if p.Name == name {
			prog.Productions = append(prog.Productions[:i], prog.Productions[i+1:]...)
			break
		}
	}
	return nil
}

// AddProductionLive adds a production to the running system. Existing
// working memory is matched immediately: instantiations over current
// wmes enter the conflict set before the next cycle. Requires the
// sequential matcher (the distributed runtime does not support live
// network changes) and a private network.
func (e *Session) AddProductionLive(p *ops5.Production) error {
	if e.shared {
		return errSharedNetwork("live production addition")
	}
	m, ok := e.matcher.(*rete.Matcher)
	if !ok {
		return fmt.Errorf("engine: live production addition requires the sequential matcher, have %T", e.matcher)
	}
	nodes, err := e.c.net.AddProductionPrivate(p)
	if err != nil {
		return err
	}
	e.c.prog.Productions = append(e.c.prog.Productions, p)

	allowed := make(map[*rete.Node]bool, len(nodes))
	for _, n := range nodes {
		allowed[n] = true
	}
	// Replay live working memory, in ID order, through the new nodes
	// only.
	changes := make([]rete.Change, 0, e.wm.live)
	for w := range e.LiveWMEs {
		changes = append(changes, rete.Change{Tag: rete.Add, WME: w})
	}
	e.absorb(m.ApplyFiltered(changes, func(n *rete.Node) bool { return allowed[n] }))
	return nil
}
