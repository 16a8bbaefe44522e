package persist

// Helpers of the package's own tests that the tests of package
// persist_test, which can use internal/fsfake, share.
var (
	Incarnation    = incarnation
	OpenInt64Store = openInt64Store
	SegName        = segName
	LogTx          = logTx
)

type WriteScratch = writeScratch
