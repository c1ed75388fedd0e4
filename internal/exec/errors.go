package exec

import (
	"errors"

	"repro/internal/plan"
)

// This file is the executor's half of the query-governance layer: the
// limits and error taxonomy re-exported at the API surface callers
// program against, and the outcome classification the logs and the
// statistics store share.

// Limits re-exports plan.Limits: the per-query resource guardrails
// (MaxPaths, MaxEdgesScanned, MaxDuration) enforced inside the operator
// DAG. The zero value is unlimited.
type Limits = plan.Limits

// The governance error taxonomy. The sentinels live in internal/plan
// (the layer that detects them); they are re-exported here because the
// executor is the API boundary callers match against with errors.Is.
var (
	ErrCanceled         = plan.ErrCanceled
	ErrDeadlineExceeded = plan.ErrDeadlineExceeded
	ErrLimitExceeded    = plan.ErrLimitExceeded
	ErrPanic            = plan.ErrPanic
)

// Outcome classifies how a query terminated for the statistics store and
// abort metrics: "ok", "canceled", "deadline", "limit", "panic", or
// "error" for non-governance failures.
func Outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrDeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrLimitExceeded):
		return "limit"
	case errors.Is(err, ErrPanic):
		return "panic"
	default:
		return "error"
	}
}
