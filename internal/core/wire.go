package core

import (
	"encoding/gob"

	"permcell/internal/dlb"
	"permcell/internal/particle"
)

// The PE protocol payloads travel as `any` through the comm substrate; on
// the TCP transport they are gob-encoded inside an envelope, which needs
// every concrete payload type registered. Registration is unconditional
// (init) and costs nothing on in-process runs.
//
// The full payload inventory of the per-step protocol:
//
//	tagLoad      float64           (basic type, pre-registered by gob)
//	tagDecision  []dlb.Decision
//	tagTransfer  colTransfer
//	tagMigrate   []particle.One
//	tagHalo      *haloMsg          (one plan-driven push per neighbor)
//	collectives  loadCensus, peRecord, []particle.One (gatherFinal),
//	             []int (Verify's hosted-column census) and []any (the
//	             broadcast leg of Allgather)
func init() {
	gob.Register([]int(nil))
	gob.Register([]any(nil))
	gob.Register([]float64(nil))
	gob.Register([]dlb.Decision(nil))
	gob.Register([]particle.One(nil))
	gob.Register(colTransfer{})
	gob.Register(&haloMsg{})
	gob.Register(loadCensus{})
	gob.Register(peRecord{})
}
