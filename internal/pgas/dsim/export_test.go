package dsim

// MapThreshold is the per-rank size from which a data segment is mapped.
const MapThreshold = mapThreshold
