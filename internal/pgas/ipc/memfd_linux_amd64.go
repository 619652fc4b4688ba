package ipc

// sysMemfdCreate is memfd_create's number, which Go's frozen syscall
// package does not name on amd64.
const sysMemfdCreate = 319
