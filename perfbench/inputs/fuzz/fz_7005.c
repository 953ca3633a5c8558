static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[3] = {-6, 5};
static int f0(int a, int b) {
    int r = a | (b * 2);
    r = r + 2;
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    v0 += ((((5 + -5) != (2 << 4)) / 3) << 6);
    v0 = v0 ^ f0((f0(((16 / 8) > (-20 * 18)), ((18 << 5) == f0(13, -16))) % 8), (((v0 % 7) <= f0((9 * -10), (5 << 2))) >> 4));
    unsigned int v1 = (unsigned int)g0[(unsigned int)((g0[(unsigned int)((7 | 9)) % 3u] != g0[(unsigned int)(2) % 3u])) % 3u];
    v0 -= (((g0[(unsigned int)(-12) % 3u] % 4) % 7) % 5);
    int a0[3] = {-6, 8};
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
