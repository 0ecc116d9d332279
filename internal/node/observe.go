package node

import (
	"hammerhead/internal/bullshark"
	"hammerhead/internal/obs"
	"hammerhead/internal/types"
	"hammerhead/pkg/rpcapi"
)

// recordBatchStage stamps stage for every identified transaction in a batch.
// Own-header tracing taps (proposed, cert_formed) run through here on the
// engine goroutine; update-only, so a transaction whose admission predates
// the tracer (or was evicted) accrues no partial waterfall.
func recordBatchStage(tr *obs.Tracer, stage obs.Stage, b *types.Batch) {
	if tr == nil || b == nil {
		return
	}
	for i := range b.Transactions {
		if id := b.Transactions[i].ID; id != 0 {
			tr.RecordSeen(stage, id)
		}
	}
}

// recordCommitStage stamps stage for every identified transaction in a
// committed sub-DAG, update-only (durable, streamed, applied).
func recordCommitStage(tr *obs.Tracer, stage obs.Stage, sub *bullshark.CommittedSubDAG) {
	if tr == nil {
		return
	}
	for _, v := range sub.Vertices {
		if v.Batch == nil {
			continue
		}
		for i := range v.Batch.Transactions {
			if id := v.Batch.Transactions[i].ID; id != 0 {
				tr.RecordSeen(stage, id)
			}
		}
	}
}

// recordCommitStageCreate is recordCommitStage with create-if-absent
// semantics: the ordered stage starts the trace on validators that never saw
// the transaction's admission, so every node retains at least the
// commit-side suffix of the waterfall.
func recordCommitStageCreate(tr *obs.Tracer, stage obs.Stage, sub *bullshark.CommittedSubDAG) {
	if tr == nil {
		return
	}
	for _, v := range sub.Vertices {
		if v.Batch == nil {
			continue
		}
		for i := range v.Batch.Transactions {
			if id := v.Batch.Transactions[i].ID; id != 0 {
				tr.Record(stage, id)
			}
		}
	}
}

// traceResponse builds the GET /v1/trace/{txid} body from the tracer's
// retained waterfall. Complete requires every stage through the end of this
// node's commit path, applied, with monotonically non-decreasing timestamps;
// only the validator that admitted the transaction can satisfy it.
func (n *Node) traceResponse(txID uint64) (rpcapi.TraceResponse, bool) {
	t, ok := n.tracer.Lookup(txID)
	if !ok {
		return rpcapi.TraceResponse{}, false
	}
	resp := rpcapi.TraceResponse{TxID: txID, Complete: true}
	var prev int64
	for s := 0; s < obs.NumStages; s++ {
		ts := t.Times[s]
		if ts == 0 {
			resp.Complete = false
			continue
		}
		if ts < prev {
			resp.Complete = false
		}
		prev = ts
		resp.Stages = append(resp.Stages, rpcapi.TraceStage{
			Stage:     obs.Stage(s).String(),
			TimeNanos: ts,
		})
	}
	return resp, true
}

// Tracer exposes the commit-path trace collector (nil without Config.Trace).
func (n *Node) Tracer() *obs.Tracer { return n.tracer }
