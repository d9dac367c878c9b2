package experiments

import (
	"sort"

	"consumelocal/internal/energy"
	"consumelocal/internal/sim"
	"consumelocal/internal/stats"
	"consumelocal/internal/trace"
)

// Fig3Result bundles the distributions of Fig. 3 plus the headline
// skewness numbers quoted in Section IV.B.2.
type Fig3Result struct {
	// Capacities is the CCDF of per-swarm capacities (Fig. 3 left).
	Capacities Dataset
	// Savings is the CCDF of per-swarm energy savings, one series per
	// energy model (Fig. 3 right).
	Savings Dataset
	// Summary quotes median per-item savings and the share of total saved
	// energy captured by the top-1% most popular items.
	Summary *Table
}

// Fig3 regenerates Fig. 3: how swarm capacity and energy savings
// distribute across the content catalogue, from the shared replay.
func (s *Suite) Fig3() (*Fig3Result, error) {
	tr, result, err := s.paperRun()
	if err != nil {
		return nil, err
	}
	models := energy.BothModels()

	res := &Fig3Result{
		Capacities: Dataset{
			Title:  "Fig. 3 (left): CCDF of per-swarm capacity",
			XLabel: "capacity",
			YLabel: "ccdf",
		},
		Savings: Dataset{
			Title:  "Fig. 3 (right): CCDF of per-swarm energy savings",
			XLabel: "energy savings",
			YLabel: "ccdf",
		},
		Summary: &Table{
			Title:   "Fig. 3 summary statistics",
			Columns: modelColumns("metric"),
		},
	}

	capacities := make([]float64, 0, len(result.Swarms))
	for _, sw := range result.Swarms {
		if sw.Tally.TotalBits <= 0 {
			continue
		}
		capacities = append(capacities, sw.Capacity)
	}
	res.Capacities.Series = []Series{{Name: "swarm capacity", Points: stats.CCDF(capacities)}}

	medians := make([]string, 0, len(models))
	topShares := make([]string, 0, len(models))
	positives := make([]string, 0, len(models))
	for _, params := range models {
		savings := make([]float64, 0, len(result.Swarms))
		for _, saving := range result.SwarmSavings(params) {
			savings = append(savings, saving.Savings)
		}
		res.Savings.Series = append(res.Savings.Series, Series{
			Name:   params.Name,
			Points: stats.CCDF(savings),
		})

		median, err := stats.Median(savings)
		if err != nil {
			median = 0
		}
		medians = append(medians, formatPercent(median))
		topShares = append(topShares, formatPercent(topItemSavingsShare(tr, result, params, 0.01)))
		positives = append(positives, formatPercent(stats.FractionAbove(savings, 0)))
	}
	res.Summary.Rows = append(res.Summary.Rows,
		append([]string{"median per-swarm savings"}, medians...),
		append([]string{"top-1% items' share of saved energy"}, topShares...),
		append([]string{"swarms with positive savings"}, positives...),
	)
	return res, nil
}

// topItemSavingsShare computes the fraction of total saved energy captured
// by the `frac` most-viewed share of content items ("the Top-1% of the
// popular items obtain over 21% (33%) of energy savings", Section IV.B.2).
func topItemSavingsShare(tr *trace.Trace, result *sim.Result, params energy.Params, frac float64) float64 {
	items := itemSavings(tr, result, params)
	if len(items) == 0 {
		return 0
	}
	topN := int(float64(len(items)) * frac)
	if topN < 1 {
		topN = 1
	}
	var top, total float64
	for i, it := range items {
		// Only positive contributions count as "savings obtained".
		if it.savedJ <= 0 {
			continue
		}
		total += it.savedJ
		if i < topN {
			top += it.savedJ
		}
	}
	if total == 0 {
		return 0
	}
	return top / total
}

// itemSaving is the saved energy of one content item under one model.
type itemSaving struct {
	content uint32
	views   int
	savedJ  float64
}

// itemSavings aggregates saved joules per content item, ordered by
// decreasing popularity.
func itemSavings(tr *trace.Trace, result *sim.Result, params energy.Params) []itemSaving {
	views := tr.ViewCounts()
	byItem := make(map[uint32]float64)
	for _, sw := range result.Swarms {
		rep := sim.Evaluate(sw.Tally, params)
		byItem[sw.Key.Content] += rep.BaselineJoules - rep.HybridJoules
	}
	out := make([]itemSaving, 0, len(byItem))
	for content, saved := range byItem {
		out = append(out, itemSaving{content: content, views: views[content], savedJ: saved})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].views != out[j].views {
			return out[i].views > out[j].views
		}
		return out[i].content < out[j].content
	})
	return out
}
