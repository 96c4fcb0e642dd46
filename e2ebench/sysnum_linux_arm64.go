package main

// sysSendmmsg is sendmmsg(2); package syscall names it only on some
// architectures.
const sysSendmmsg = 269
