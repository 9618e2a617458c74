// Pairs src/cpu/bad_printf.cc, so only its seeded rule fires.
