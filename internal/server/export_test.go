package server

import "mssr/internal/sim"

// CorePool returns the idle-core pool s's default backend hands every
// per-job sim.Runner.
func CorePool(s *Server) *sim.CorePool { return &s.cfg.Backend.(*runners).cores }

// ReplyBytes is the budget a submit reply's results must fit.
const ReplyBytes = replyBytes
