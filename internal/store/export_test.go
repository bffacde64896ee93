package store

// CountHashes is countHashes for the external tests, which drive the
// store through a whole service.
var CountHashes = countHashes
