//go:build !linux || !(amd64 || arm64)

package ipc

import "os"

// createRegionFile creates a file in the temp directory and unlinks it at
// once: from then on only descriptors and mappings keep it alive.
func createRegionFile() (*os.File, error) {
	f, err := os.CreateTemp("", "scioto-ipc-*")
	if err != nil {
		return nil, err
	}
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
