package euler

// RowsInEdgeOrder exports the test helper to the external benchmarks.
var RowsInEdgeOrder = rowsInEdgeOrder
