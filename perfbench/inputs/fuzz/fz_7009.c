static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[6] = {-2, 9};
int g1[6] = {9, -9};
static int f0(int a, int b) {
    int r = a ^ (b & 9);
    if (r != -2)
        r = r & 3;
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    int v1 = (-8 << 5);
    int v2 = ((g0[(unsigned int)((15 | 14)) % 6u] % 9) / 1);
    g0[(unsigned int)((((-2 | 8) * g0[(unsigned int)(-10) % 6u]) % 6)) % 6u] = v2;
    int a0[5] = {0, 6};
    g1[(unsigned int)(v2) % 6u] = -14;
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
