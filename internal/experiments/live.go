package experiments

import "consumelocal/internal/trace"

// Live contrasts the paper's catch-up workload with the live-streaming
// scenario it lists as future work: the same delivery volume, but
// synchronised around broadcast schedules. Live swarms reach audience-
// sized concurrency, pushing savings toward the asymptotic bound, while a
// catch-up workload of equal volume spreads the same sessions across a
// day and a catalogue. It reads no shared input: it generates and
// replays a live evening and a catch-up day of its own.
func (s *Suite) Live() (*Table, error) {
	liveCfg := trace.DefaultLiveConfig(s.cfg.Scale)
	liveCfg.Seed = s.cfg.Seed
	live, err := trace.GenerateLive(liveCfg)
	if err != nil {
		return nil, err
	}

	cuCfg := s.cfg.monthConfig(s.cfg.Scale)
	cuCfg.Days = 1
	cuCfg.TargetSessions = len(live.Sessions)
	catchup, err := trace.Generate(cuCfg)
	if err != nil {
		return nil, err
	}

	table := &Table{
		Title:   "Live broadcasts vs catch-up viewing (equal session volume)",
		Columns: modelColumns("workload", "sessions", "offload"),
	}
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"live evening", live},
		{"catch-up day", catchup},
	} {
		result, err := replay(tc.tr, s.armConfig())
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, savingsRow(result.Total, tc.name, formatCount(len(tc.tr.Sessions))))
	}
	return table, nil
}
