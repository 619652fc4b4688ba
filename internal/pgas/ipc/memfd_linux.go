//go:build amd64 || arm64

package ipc

import (
	"os"
	"syscall"
	"unsafe"
)

const mfdCloexec = 1 // MFD_CLOEXEC

// createRegionFile returns an anonymous memory file: no filesystem names
// it, and the kernel frees it when its last descriptor and last mapping
// are gone, however the processes holding them end.
func createRegionFile() (*os.File, error) {
	name, _ := syscall.BytePtrFromString("scioto-ipc") // fails only on a NUL byte
	fd, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(name)), mfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("memfd_create", errno)
	}
	return os.NewFile(fd, "memfd:scioto-ipc"), nil
}
