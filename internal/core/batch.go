package core

// BatchRequest is one allocation request inside a PlanBatch call.
type BatchRequest struct {
	Requester int
	Amount    float64
}

// BatchResult pairs one batch request with its outcome. Exactly one of
// Alloc and Err is set.
type BatchResult struct {
	Alloc *Allocation
	Err   error
}

// PlanBatch plans a sequence of requests against one availability vector,
// committing each successful allocation before planning the next with the
// GRM's commit rule (avail[i] -= Take[i], clamped at 0), bit-identical to
// Plan once per request with that rule applied between calls. A failed
// request consumes nothing and does not stop the batch. Like Plan it is
// only a compile shim for the frozen layer benchmark in bench/, which
// ROADMAP item 1f deletes with this file: the GRM plans each request with
// PlanPairs against its own books and commits it before the next, this
// chain without the dense vectors.
func (al *Allocator) PlanBatch(v []float64, reqs []BatchRequest) []BatchResult {
	al.checkV(v)
	n := al.n
	for _, req := range reqs {
		al.checkRequester(req.Requester)
	}
	results := make([]BatchResult, len(reqs))
	if len(reqs) == 0 {
		return results
	}
	ws := al.getWS()
	defer al.putWS(ws)

	// One backing array per field for the whole batch.
	takeBuf := make([]float64, 2*len(reqs)*n)
	newVBuf := takeBuf[len(reqs)*n:]
	takeBuf = takeBuf[: len(reqs)*n : len(reqs)*n]
	allocs := make([]Allocation, len(reqs))

	cur := append([]float64(nil), v...) // the running availability between requests
	for r, req := range reqs {
		if err := al.plan(ws, cur, req.Requester, req.Amount); err != nil {
			results[r].Err = err
			continue
		}
		out := &allocs[r]
		out.Take = takeBuf[r*n : (r+1)*n : (r+1)*n]
		out.NewV = newVBuf[r*n : (r+1)*n : (r+1)*n]
		ws.scatter(out, cur)
		results[r].Alloc = out
		for x, i := range ws.vars {
			cur[i] -= ws.take[x]
			if cur[i] < 0 {
				cur[i] = 0
			}
		}
	}
	return results
}
