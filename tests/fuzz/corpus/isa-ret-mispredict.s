; alternating callees from one loop: the call site's return target
; is reached from a different callee every other iteration, so the
; counters of every engine must still match exactly
main:
    mov r5, 0
    mov r6, 8
L:
    and r1, r6, 1
    beqz r1, Leven
    call f1
    jmp Lnext
Leven:
    call f2
Lnext:
    sub r6, r6, 1
    bnez r6, L
    halt r5
f1:
    add r5, r5, 1
    ret
f2:
    add r5, r5, 2
    ret
