package durable

// FS and File name the seam every mutating call goes through, OS is
// the real implementation, and SetFS swaps it for a test, returning the
// func that puts the previous one back.
type (
	FS   = fileSystem
	File = file
)

var OS FS = osFS{}

func SetFS(f FS) (restore func()) {
	old := fs
	fs = f
	return func() { fs = old }
}
