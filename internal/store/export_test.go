package store

// Exported to the tests of upgraded logs (upgrade_test.go), which import
// internal/store/legacy and so are tests of package store_test.
var (
	AllKinds      = allKinds
	SampleRecords = sampleRecords
	ReplayAll     = replayAll
	AppendFrame   = appendFrame
	AppendRecord  = appendRecord
	LegacyFrame   = legacyFrame

	V2Golden = v2Golden
	V3Golden = v3Golden
	V4Golden = v4Golden
)

const FileMagic = fileMagic
