// FORK: the clone resumes at the slot after the FORK one recirculation
// later and runs to completion before the primary continues, so the clone
// increments the counter first and returns 1, the primary 2.
.arg ADDR 2
MAR_LOAD $ADDR
FORK
MEM_INCREMENT
MBR_STORE 0
RTS
RETURN
