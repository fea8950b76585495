// Package analysis automates the Section 5.2 diagnosis the paper
// performs by hand: given a hash-table activity trace it detects the
// known parallelism pathologies — non-discriminating (cross-product)
// nodes whose tokens pile onto one bucket, multiple-successor
// bottlenecks, the multiple-modify effect, small cycles, and per-cycle
// bucket-distribution imbalance — and proposes the countermeasure the
// paper applies to each: copy-and-constraint, unsharing/dummy nodes,
// single-processor clustering, or better static distribution. AutoTune
// applies the trace-level transformations and reports the result.
package analysis

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"mpcrete/internal/stats"
	"mpcrete/internal/trace"
)

// The detectors' thresholds.
const (
	// hotBucketShare flags a node when one bucket carries at least this
	// fraction of the node's activations (and at least hotBucketMin of
	// them).
	hotBucketShare = 0.8
	hotBucketMin   = 64
	// fanoutThreshold flags activations generating more successors than
	// this.
	fanoutThreshold = 16
	// smallCycleMax is the paper's bound on "small" cycles (100 or fewer
	// tokens).
	smallCycleMax = 100
	// imbalanceCV flags cycles whose per-bucket load has a coefficient
	// of variation above this.
	imbalanceCV = 2
)

// CycleReport summarizes one cycle.
type CycleReport struct {
	Index       int
	Activations int
	Lefts       int
	Rights      int
	// MaxBucketLoad is the busiest bucket's activation count.
	MaxBucketLoad int
	// BucketCV is the coefficient of variation of per-active-bucket
	// load.
	BucketCV float64
	Small    bool
}

// HotNode is a cross-product suspect: a node most of whose activations
// hash to a single bucket.
type HotNode struct {
	Node        int
	Bucket      int
	Activations int
	Share       float64
}

// FanoutSite is a multiple-successor bottleneck.
type FanoutSite struct {
	Node      int
	MaxFanout int
	// Sites is the number of activations exceeding the threshold.
	Sites int
	// Generated is the number of successors those activations produce.
	Generated int
}

// ModifyEffect reports balanced add/delete waves at one node-bucket
// site — the paper's hitherto-unsuspected multiple-modify effect.
type ModifyEffect struct {
	Node    int
	Bucket  int
	Adds    int
	Deletes int
}

// SuggestionKind enumerates countermeasures.
type SuggestionKind uint8

const (
	// SuggestCopyAndConstrain splits a cross-product node's bucket
	// stream k ways (Section 5.2.2).
	SuggestCopyAndConstrain SuggestionKind = iota
	// SuggestUnshare splits high-fan-out successor generation
	// (Section 5.2.1, Fig 5-3; dummy nodes are the same remedy).
	SuggestUnshare
	// SuggestCluster processes a small cycle's tokens on one processor
	// to avoid communication (Section 5.2.1, final remark).
	SuggestCluster
	// SuggestRedistribute recommends a better static bucket
	// distribution for imbalanced cycles (Section 5.2.2 greedy).
	SuggestRedistribute
	// SuggestBoundedJoins recommends recompiling with the
	// worst-case-bounded variant (rete.CompileVariant(prods, "bounded")):
	// cross-product nodes stop existing because no partial
	// instantiations are materialized at all. Compile-level — AutoTune
	// reports it but cannot apply it to a trace.
	SuggestBoundedJoins
)

var suggestionNames = [...]string{"copy-and-constraint", "unshare", "cluster-on-one-processor", "redistribute-buckets", "bounded-joins"}

// String names the suggestion.
func (k SuggestionKind) String() string { return suggestionNames[k] }

// Suggestion is one recommended countermeasure.
type Suggestion struct {
	Kind   SuggestionKind
	Node   int // target node (copy-and-constraint, unshare)
	Cycle  int // target cycle (cluster, redistribute)
	K      int // split factor where applicable
	Reason string
}

// Report is the full analysis result.
type Report struct {
	Trace         string
	Cycles        []CycleReport
	HotNodes      []HotNode
	Fanouts       []FanoutSite
	ModifyEffects []ModifyEffect
	Suggestions   []Suggestion
}

// Analyze runs all detectors over a trace.
func Analyze(tr *trace.Trace) *Report {
	r := &Report{Trace: tr.Name}

	type nodeBucket struct{ node, bucket int }
	nodeTotal := map[int]int{}
	siteCount := map[nodeBucket]int{}
	siteAdds := map[nodeBucket]int{}
	siteDels := map[nodeBucket]int{}
	fanouts := map[int]*FanoutSite{}

	for ci, cy := range tr.Cycles {
		cr := CycleReport{Index: ci}
		bucketLoad := map[int]int{}
		cy.Walk(func(a *trace.Activation) {
			cr.Activations++
			if a.Side == trace.LeftSide {
				cr.Lefts++
			} else {
				cr.Rights++
			}
			bucketLoad[a.Bucket]++
			nodeTotal[a.Node]++
			nb := nodeBucket{a.Node, a.Bucket}
			siteCount[nb]++
			if a.Tag == trace.AddTag {
				siteAdds[nb]++
			} else {
				siteDels[nb]++
			}
			if n := a.Successors(); n > fanoutThreshold {
				fs := fanouts[a.Node]
				if fs == nil {
					fs = &FanoutSite{Node: a.Node}
					fanouts[a.Node] = fs
				}
				fs.Sites++
				fs.Generated += n
				if n > fs.MaxFanout {
					fs.MaxFanout = n
				}
			}
		})
		loads := make([]int, 0, len(bucketLoad))
		for _, l := range bucketLoad {
			loads = append(loads, l)
		}
		// Map order is random: sorted, the CV's float sum has one order.
		slices.Sort(loads)
		cr.MaxBucketLoad = stats.Max(loads)
		cr.BucketCV = stats.CV(loads)
		cr.Small = cr.Activations > 0 && cr.Activations <= smallCycleMax
		r.Cycles = append(r.Cycles, cr)
	}

	// Hot (cross-product) nodes.
	for nb, count := range siteCount {
		total := nodeTotal[nb.node]
		share := float64(count) / float64(total)
		if count >= hotBucketMin && share >= hotBucketShare && total >= hotBucketMin {
			r.HotNodes = append(r.HotNodes, HotNode{
				Node: nb.node, Bucket: nb.bucket, Activations: count, Share: share,
			})
			if siteAdds[nb] > 0 && siteDels[nb] > 0 && ratioNear(siteAdds[nb], siteDels[nb], 0.5) {
				r.ModifyEffects = append(r.ModifyEffects, ModifyEffect{
					Node: nb.node, Bucket: nb.bucket, Adds: siteAdds[nb], Deletes: siteDels[nb],
				})
			}
		}
	}
	// The sites come out of maps in random order, so ties on the key
	// are broken by node, then by bucket: the report is a function of
	// the trace.
	slices.SortFunc(r.HotNodes, func(a, b HotNode) int {
		return cmp.Or(cmp.Compare(b.Activations, a.Activations), cmp.Compare(a.Node, b.Node), cmp.Compare(a.Bucket, b.Bucket))
	})
	slices.SortFunc(r.ModifyEffects, func(a, b ModifyEffect) int {
		return cmp.Or(cmp.Compare(b.Adds, a.Adds), cmp.Compare(a.Node, b.Node), cmp.Compare(a.Bucket, b.Bucket))
	})

	for _, fs := range fanouts {
		r.Fanouts = append(r.Fanouts, *fs)
	}
	slices.SortFunc(r.Fanouts, func(a, b FanoutSite) int {
		return cmp.Or(cmp.Compare(b.MaxFanout, a.MaxFanout), cmp.Compare(a.Node, b.Node))
	})

	r.suggest()
	return r
}

// ratioNear reports whether a/(a+b) is within 0.15 of target.
func ratioNear(a, b int, target float64) bool {
	ratio := float64(a) / float64(a+b)
	d := ratio - target
	return d < 0.15 && d > -0.15
}

// suggest derives countermeasures from the detections.
func (r *Report) suggest() {
	for _, hn := range r.HotNodes {
		k := 8
		r.Suggestions = append(r.Suggestions, Suggestion{
			Kind: SuggestCopyAndConstrain,
			Node: hn.Node,
			K:    k,
			Reason: fmt.Sprintf("node %d sends %.0f%% of its %d activations to bucket %d (no hash discrimination)",
				hn.Node, 100*hn.Share, hn.Activations, hn.Bucket),
		})
		r.Suggestions = append(r.Suggestions, Suggestion{
			Kind: SuggestBoundedJoins,
			Node: hn.Node,
			Reason: fmt.Sprintf("node %d is a cross-product suspect: recompile with -variant bounded to avoid materializing its beta memory",
				hn.Node),
		})
	}
	for _, fs := range r.Fanouts {
		r.Suggestions = append(r.Suggestions, Suggestion{
			Kind: SuggestUnshare,
			Node: fs.Node,
			K:    4,
			Reason: fmt.Sprintf("node %d generates up to %d successors from one site (%d tokens over %d activations)",
				fs.Node, fs.MaxFanout, fs.Generated, fs.Sites),
		})
	}
	for _, cr := range r.Cycles {
		if cr.Small && cr.Lefts > cr.Rights {
			r.Suggestions = append(r.Suggestions, Suggestion{
				Kind:  SuggestCluster,
				Cycle: cr.Index,
				Reason: fmt.Sprintf("cycle %d is small (%d tokens, %d left): communication overheads dominate",
					cr.Index, cr.Activations, cr.Lefts),
			})
		} else if cr.BucketCV > imbalanceCV && cr.MaxBucketLoad < cr.Activations/2 {
			r.Suggestions = append(r.Suggestions, Suggestion{
				Kind:  SuggestRedistribute,
				Cycle: cr.Index,
				Reason: fmt.Sprintf("cycle %d bucket load CV %.1f: active buckets cluster on few processors",
					cr.Index, cr.BucketCV),
			})
		}
	}
}

// AutoTune applies the trace-level countermeasures the report calls
// for (copy-and-constraint on hot nodes, fan-out splitting) and
// returns the transformed trace. Cluster and redistribute suggestions
// are scheduling-level and reported only.
func AutoTune(tr *trace.Trace) (*trace.Trace, *Report) {
	r := Analyze(tr)
	out := tr
	for _, s := range r.Suggestions {
		switch s.Kind {
		case SuggestCopyAndConstrain:
			out = trace.ScatterNode(out, s.Node, s.K)
		case SuggestUnshare:
			out = trace.SplitFanout(out, fanoutThreshold, s.K)
		}
	}
	if out != tr {
		out.Name = tr.Name + "+tuned"
	}
	return out, r
}

// Render prints the report.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "analysis of %s\n", r.Trace)
	rows := [][]string{{"cycle", "acts", "left", "right", "max-bucket", "cv", "small"}}
	for _, c := range r.Cycles {
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.Index),
			fmt.Sprintf("%d", c.Activations),
			fmt.Sprintf("%d", c.Lefts),
			fmt.Sprintf("%d", c.Rights),
			fmt.Sprintf("%d", c.MaxBucketLoad),
			fmt.Sprintf("%.2f", c.BucketCV),
			fmt.Sprintf("%v", c.Small),
		})
	}
	stats.Table(w, rows)
	if len(r.HotNodes) > 0 {
		fmt.Fprintln(w, "\ncross-product (non-discriminating) nodes:")
		for _, hn := range r.HotNodes {
			fmt.Fprintf(w, "  node %d: %d activations, %.0f%% at bucket %d\n", hn.Node, hn.Activations, 100*hn.Share, hn.Bucket)
		}
	}
	if len(r.ModifyEffects) > 0 {
		fmt.Fprintln(w, "\nmultiple-modify effects:")
		for _, me := range r.ModifyEffects {
			fmt.Fprintf(w, "  node %d bucket %d: %d adds / %d deletes\n", me.Node, me.Bucket, me.Adds, me.Deletes)
		}
	}
	if len(r.Fanouts) > 0 {
		fmt.Fprintln(w, "\nmultiple-successor bottlenecks:")
		for _, fs := range r.Fanouts {
			fmt.Fprintf(w, "  node %d: max fan-out %d (%d sites, %d tokens)\n", fs.Node, fs.MaxFanout, fs.Sites, fs.Generated)
		}
	}
	if len(r.Suggestions) > 0 {
		fmt.Fprintln(w, "\nsuggestions:")
		for _, s := range r.Suggestions {
			fmt.Fprintf(w, "  %s: %s\n", s.Kind, s.Reason)
		}
	}
}
