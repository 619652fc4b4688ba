package ipc

import "syscall"

const sysMemfdCreate = syscall.SYS_MEMFD_CREATE
